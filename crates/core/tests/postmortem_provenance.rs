//! End-to-end flight recorder + provenance: build a delegation chain,
//! freeze a black box, crash, crash *again* mid-recovery, then verify
//! the surviving process serves a postmortem with the predecessor's
//! final spans and returns exactly the delegate-hop chain the §2.1
//! oracle predicts — across both engine strategies.

use rh_common::ops::Value;
use rh_common::{ObjectId, TxnId};
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::history::{Event, Label, Oracle};
use rh_core::sharded::ShardedDb;
use rh_core::TxnEngine;
use rh_obs::JsonValue;
use rh_storage::Disk;
use rh_wal::{FaultInjector, FaultIo, FileLogConfig, StableLog};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SEGMENT_BYTES: u64 = 512;
const X: ObjectId = ObjectId(7);
const SPARE: ObjectId = ObjectId(99);
const POISON: Value = -4242;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-postmortem-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_real(dir: &PathBuf) -> Arc<StableLog> {
    StableLog::open_file(FileLogConfig::new(dir).segment_bytes(SEGMENT_BYTES)).expect("open")
}

/// The abstract history both the engine and the oracle run: a two-hop
/// delegation chain over `X` (t1 -> t2 -> t3, tee commits), plus a loser
/// that stays active into the crash.
fn history() -> Vec<Event> {
    vec![
        Event::Begin(1),
        Event::Begin(2),
        Event::Begin(3),
        Event::Write(1, X, 10),
        Event::Delegate(1, 2, vec![X]),
        Event::Write(2, X, 20),
        Event::Delegate(2, 3, vec![X]),
        Event::Commit(3),
        Event::Commit(1),
        Event::Begin(4),
        Event::Write(4, SPARE, POISON),
        Event::Crash,
    ]
}

/// The delegate-hop chain for `target` that §2.1 semantics predict: one
/// `(tor, tee)` hop per delegate event issued while the oracle says the
/// delegator is actually responsible for the object.
fn oracle_predicted_chain(events: &[Event], target: ObjectId) -> Vec<(Label, Label)> {
    let mut oracle = Oracle::new();
    let mut chain = Vec::new();
    for ev in events {
        if let Event::Delegate(tor, tee, obs) = ev {
            if obs.contains(&target) && oracle.responsible_objects(*tor).contains(&target) {
                chain.push((*tor, *tee));
            }
        }
        oracle.apply(ev);
    }
    chain
}

fn http_get(addr: SocketAddr, path: &str) -> JsonValue {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "GET {path}: {head}");
    rh_obs::json::parse(body).expect("json body")
}

/// `crash_mid_recovery` additionally kills the *second* incarnation a
/// few bytes into its recovery. Only the RH engine is subjected to that:
/// the lazy baseline physically rewrites records in place during
/// recovery, which is exactly the non-crash-atomic behavior the paper
/// criticizes (§3.2) — a torn in-place rewrite corrupts committed
/// history, so repeated-crash safety is an RH-only property (see also
/// `interrupted_recovery.rs`).
fn chain_survives_crashed_recovery(strategy: Strategy, crash_mid_recovery: bool) {
    let dir = scratch("chain");
    let events = history();

    // ---- incarnation 1: run the history by hand, freeze a black box --
    let mut db = RhDb::with_stable_log(strategy, DbConfig::default(), open_real(&dir));
    assert!(db.has_flight_recorder(), "file-backed engines auto-attach the recorder");
    let mut ids: BTreeMap<Label, TxnId> = BTreeMap::new();
    for ev in &events {
        match ev {
            Event::Begin(l) => {
                ids.insert(*l, db.begin().unwrap());
            }
            Event::Write(l, ob, v) => db.write(ids[l], *ob, *v).unwrap(),
            Event::Delegate(tor, tee, obs) => db.delegate(ids[tor], ids[tee], obs).unwrap(),
            Event::Commit(l) => db.commit(ids[l]).unwrap(),
            Event::Crash => break,
            other => unreachable!("history has no {other:?}"),
        }
    }

    let predicted: Vec<(TxnId, TxnId)> = oracle_predicted_chain(&events, X)
        .into_iter()
        .map(|(tor, tee)| (ids[&tor], ids[&tee]))
        .collect();
    assert_eq!(predicted.len(), 2, "the history delegates X twice");
    let live_chain = db.provenance(X);
    assert_eq!(
        live_chain.iter().map(|h| (h.from, h.to)).collect::<Vec<_>>(),
        predicted,
        "live chain must match the oracle"
    );
    assert!(db.record_blackbox("pre-crash"), "the freeze must land");
    let (stable, _disk) = db.crash();
    drop(stable);

    let oracle = Oracle::run(&events);
    assert_eq!(oracle.value(X), 20, "delegated update committed by the tee survives");
    assert_eq!(oracle.value(SPARE), 0, "the loser's poison is undone");

    // ---- incarnation 2: the recovery itself dies after a few bytes ---
    if crash_mid_recovery {
        let injector = FaultInjector::crash_after_bytes(8);
        let stable = StableLog::open_file_with(
            Arc::new(FaultIo::std(Arc::clone(&injector))),
            FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES),
        )
        .expect("attach before any write");
        let died = RhDb::recover(strategy, DbConfig::default(), stable, Disk::new());
        assert!(died.is_err(), "recovery must die mid-flight (loser termination writes)");
        assert!(injector.crashed());
    }

    // ---- incarnation 3: real I/O; recovery completes -----------------
    let mut db =
        RhDb::recover(strategy, DbConfig::default(), open_real(&dir), Disk::new()).unwrap();
    assert_eq!(db.value_of(X).unwrap(), oracle.value(X));
    assert_eq!(db.value_of(SPARE).unwrap(), oracle.value(SPARE));

    // The rebuilt chain is byte-identical to the pre-crash one — same
    // transactions, same delegate-record LSNs — and matches the oracle.
    let recovered_chain = db.provenance(X);
    assert_eq!(recovered_chain, live_chain, "forward pass must rebuild the exact chain");
    assert_eq!(recovered_chain.iter().map(|h| (h.from, h.to)).collect::<Vec<_>>(), predicted,);
    assert!(db.provenance(SPARE).is_empty(), "never-delegated objects have empty chains");

    // The postmortem names the predecessor's last record and final spans.
    let pm = db.postmortem().expect("a predecessor black box exists");
    let pred = pm.get("predecessor").expect("predecessor section");
    assert_eq!(pred.get("reason").and_then(JsonValue::as_str), Some("pre-crash"));
    let spans = pred.get("final_spans").and_then(JsonValue::as_arr).expect("final spans");
    assert!(!spans.is_empty(), "the predecessor recorded trace events");
    let report = db.last_recovery().expect("recovered engines carry a report");
    assert!(report.postmortem.is_some(), "the report carries the same diff");

    // The new incarnation froze its own "recovery" record on the way up.
    assert_eq!(db.stats().counter(rh_obs::names::M_BLACKBOX_RECORDS), 1);

    // ---- live introspection over TCP ---------------------------------
    let db = ShardedDb::from(db);
    let addr = db.serve_introspection("127.0.0.1:0").expect("bind");
    let pm_wire = http_get(addr, "/postmortem");
    assert_eq!(
        pm_wire
            .as_arr()
            .and_then(|shards| shards.first())
            .expect("shard 0's entry")
            .get("predecessor")
            .and_then(|p| p.get("reason"))
            .and_then(JsonValue::as_str),
        Some("pre-crash"),
        "postmortem served over the wire"
    );
    let chain_wire = http_get(addr, &format!("/provenance/{}", X.raw()));
    let hops = chain_wire.as_arr().expect("chain array");
    assert_eq!(hops.len(), predicted.len());
    for (hop, (from, to)) in hops.iter().zip(&predicted) {
        assert_eq!(hop.get("from").and_then(JsonValue::as_u64), Some(from.raw()));
        assert_eq!(hop.get("to").and_then(JsonValue::as_u64), Some(to.raw()));
    }
    db.stop_introspection();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rh_chain_survives_crashed_recovery() {
    chain_survives_crashed_recovery(Strategy::Rh, true);
}

#[test]
fn lazy_chain_survives_crash() {
    chain_survives_crashed_recovery(Strategy::LazyRewrite, false);
}
