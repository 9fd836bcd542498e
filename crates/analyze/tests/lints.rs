//! Seeded-fixture tests: every rule must fire on its violating fixture
//! and stay silent on the clean one. Fixtures live in `tests/fixtures/`
//! (excluded from workspace scans and never compiled); each is lexed
//! under a path that puts it in the rule's declared scope.

use rh_analyze::rules::{self, SourceFile};
use std::collections::HashSet;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn allowed_names() -> HashSet<String> {
    ["log.appends".to_string(), "recovery.runs".to_string()].into_iter().collect()
}

fn rules_of(findings: &[rh_analyze::findings::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn l1_fixture_fires_and_respects_suppression() {
    let f = SourceFile::new("crates/core/src/recovery/fixture.rs", &fixture("l1_panics.rs"));
    let found = rh_analyze::findings::apply_suppressions(&f.tokens, rules::panics::check(&f));
    // unwrap, panic!, expect, unreachable! — the suppressed unwrap and
    // everything inside #[cfg(test)] must not count.
    assert_eq!(found.len(), 4, "got: {found:#?}");
    assert!(rules_of(&found).iter().all(|r| *r == "L1"));
}

#[test]
fn l2_fixture_fires_on_reversed_and_undeclared_nesting() {
    let f = SourceFile::new("crates/eos/src/fixture.rs", &fixture("l2_locks.rs"));
    let found = rules::locks::check(&f);
    assert_eq!(found.len(), 2, "got: {found:#?}");
    assert!(found[0].message.contains("holding `snapshot`"));
    assert!(found[1].message.contains("waiters") || found[1].message.contains("batches"));
}

#[test]
fn l3_fixture_fires_on_typod_names_only() {
    let f = SourceFile::new("crates/wal/src/fixture.rs", &fixture("l3_obsnames.rs"));
    let found = rules::obsnames::check(&f, &allowed_names());
    let names: Vec<&str> =
        found.iter().map(|f| f.message.split('"').nth(1).unwrap_or("")).collect();
    assert_eq!(names, vec!["log.apends", "recovery.rnus", "undo.mystery_event"], "{found:#?}");
}

#[test]
fn l4_fixture_fires_outside_tests() {
    let f = SourceFile::new("crates/core/src/fixture.rs", &fixture("l4_determinism.rs"));
    let found = rules::determinism::check(&f);
    assert_eq!(found.len(), 2, "got: {found:#?}");
}

#[test]
fn l5_fixture_fires_on_both_unsafe_sites() {
    let f = SourceFile::new("crates/core/src/fixture.rs", &fixture("l5_unsafe.rs"));
    let found = rules::unsafety::check(&f);
    assert_eq!(found.len(), 2, "got: {found:#?}");
    assert!(found.iter().all(|x| x.message.contains("allowlist")));
}

/// Dep map for the lock-graph fixtures: the two fixture "crates" plus
/// nothing else — resolution across them exercises `can_call`.
fn lock_deps() -> rh_analyze::callgraph::DepMap {
    rh_analyze::callgraph::DepMap::from_edges(&[("fixa", "fixb")])
}

#[test]
fn l6_fixture_fires_direct_and_interprocedural_respecting_waivers() {
    let f = SourceFile::new("crates/wal/src/fixture.rs", &fixture("l6_fsync.rs"));
    let a = rh_analyze::lockgraph::analyze(std::slice::from_ref(&f), &lock_deps());
    let found = rh_analyze::findings::apply_suppressions(&f.tokens, a.findings);
    // `force` (direct sink) and `outer` (through the resolved
    // `flush_inner`); the waived and in-test copies must not count.
    assert_eq!(found.len(), 2, "got: {found:#?}");
    assert!(rules_of(&found).iter().all(|r| *r == "L6"));
    assert!(found.iter().any(|x| x.message.contains("is a fsync/flush")), "{found:#?}");
    assert!(found.iter().any(|x| x.message.contains("may fsync/flush")), "{found:#?}");
    assert!(found.iter().all(|x| x.message.contains("`wal.state`")), "{found:#?}");
}

#[test]
fn l7_fixture_fires_only_past_the_sockets_own_guard() {
    let f = SourceFile::new("crates/server/src/fixture.rs", &fixture("l7_send.rs"));
    let a = rh_analyze::lockgraph::analyze(std::slice::from_ref(&f), &lock_deps());
    let found = rh_analyze::findings::apply_suppressions(&f.tokens, a.findings);
    // `reply` fires on the engine guard only; `pong` holds just the
    // socket's own write-half mutex (expected around a send) and the
    // waived heartbeat is suppressed.
    assert_eq!(found.len(), 1, "got: {found:#?}");
    assert_eq!(found[0].rule, "L7");
    assert!(found[0].message.contains("`server.engine`"), "{found:#?}");
    assert!(!found[0].message.contains("`server.out`"), "{found:#?}");
}

#[test]
fn l8_fixture_fires_on_sleep_and_park_outside_tests() {
    let f = SourceFile::new("crates/core/src/fixture.rs", &fixture("l8_sleep.rs"));
    let a = rh_analyze::lockgraph::analyze(std::slice::from_ref(&f), &lock_deps());
    let found = rh_analyze::findings::apply_suppressions(&f.tokens, a.findings);
    assert_eq!(found.len(), 2, "got: {found:#?}");
    assert!(rules_of(&found).iter().all(|r| *r == "L8"));
    assert!(found.iter().all(|x| x.message.contains("`core.prov`")), "{found:#?}");
}

#[test]
fn abba_fixture_spanning_two_crates_is_a_diagnosed_cycle() {
    let files = [
        SourceFile::new("crates/fixa/src/lib.rs", &fixture("abba_a.rs")),
        SourceFile::new("crates/fixb/src/lib.rs", &fixture("abba_b.rs")),
    ];
    let g = rh_analyze::lockgraph::analyze(&files, &lock_deps());
    assert!(g.has_cycle(), "edges: {:?}", g.edges);
    assert_eq!(g.cycles[0], vec!["fixa.alpha".to_string(), "fixb.beta".to_string()]);
    // Two-site diagnosis: each direction carries its own provenance.
    let fwd = g.edge("fixa.alpha", "fixb.beta").expect("forward edge");
    let rev = g.edge("fixb.beta", "fixa.alpha").expect("reverse edge");
    assert_eq!(fwd.via.as_deref(), Some("poke"), "{fwd:?}");
    assert!(rev.via.as_deref().unwrap_or("").contains("with_beta"), "{rev:?}");
    assert_ne!((&fwd.file, fwd.line), (&rev.file, rev.line));
}

#[test]
fn closure_parameter_is_typed_from_the_callees_fn_bound() {
    let files = [
        SourceFile::new("crates/fixc/src/router.rs", &fixture("closure_router.rs")),
        SourceFile::new("crates/fixc/src/engine.rs", &fixture("closure_engine.rs")),
    ];
    let g = rh_analyze::lockgraph::analyze(&files, &lock_deps());
    assert!(g.edge("fixc.gtxns", "fixc.engine").is_some(), "edges: {:?}", g.edges);
    // `eng.write` inside `on_shard(|eng| ..)` is the engine's `write`
    // (the closure's `&mut Engine`), which takes no router lock.
    assert!(g.edge("fixc.engine", "fixc.gtxns").is_none(), "edges: {:?}", g.edges);
    assert!(!g.has_cycle(), "cycles: {:?}", g.cycles);
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    // Scan the clean fixture under the *most* rule-exposed paths: a
    // durability-critical recovery file and a lock-manifested crate.
    for path in ["crates/core/src/recovery/fixture.rs", "crates/eos/src/fixture.rs"] {
        let f = SourceFile::new(path, &fixture("clean.rs"));
        let found = rules::run_all(std::slice::from_ref(&f), &allowed_names());
        assert!(found.is_empty(), "clean fixture flagged under {path}: {found:#?}");
    }
}
