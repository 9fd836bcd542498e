//! Crash mid-delegation, restart, and ask the new process what its
//! predecessor was doing.
//!
//! ```text
//! cargo run --example postmortem
//! ```
//!
//! The first incarnation runs a two-hop delegation chain over a ledger
//! object, freezes a flight-recorder black box, and "crashes" while the
//! final delegatee is still active. The second incarnation recovers from
//! the log — whose forward pass also finds the predecessor's newest black
//! box, a record in that same log — and prints: the rebuilt provenance
//! chain of the delegated object, the predecessor's last 20 trace spans,
//! and the postmortem counter diff. The log directory is left at
//! `target/obs/postmortem_demo` so `rh-postmortem` can be pointed at it
//! afterwards (CI does exactly that).

use aries_rh::obs::JsonValue;
use aries_rh::storage::Disk;
use aries_rh::wal::StableLog;
use aries_rh::{DbConfig, ObjectId, RhDb, Strategy, TxnEngine};

fn main() {
    let dir = std::path::PathBuf::from("target/obs/postmortem_demo");
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = ObjectId(7);

    // ---- incarnation 1: delegate, freeze, die ------------------------
    let stable = StableLog::open_dir(&dir).expect("open log dir");
    let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
    let ingest = db.begin().unwrap();
    let verify = db.begin().unwrap();
    let publish = db.begin().unwrap();

    db.write(ingest, ledger, 100).unwrap();
    // Responsibility for the ledger travels ingest -> verify -> publish;
    // the writers commit, but the object's fate follows the delegatee.
    db.delegate(ingest, verify, &[ledger]).unwrap();
    db.commit(ingest).unwrap();
    db.add(verify, ledger, 17).unwrap();
    db.delegate(verify, publish, &[ledger]).unwrap();
    db.commit(verify).unwrap();

    assert!(db.record_blackbox("pre-crash"), "black box must land before the crash");
    println!("incarnation 1: ledger delegated twice, publish still active — crashing now");
    let (stable, _disk) = db.crash();
    drop(stable);

    // ---- incarnation 2: recover and read the black box ---------------
    let stable = StableLog::open_dir(&dir).expect("reopen log dir");
    let mut db =
        RhDb::recover(Strategy::Rh, DbConfig::default(), stable, Disk::new()).expect("recover");

    // `publish` never committed, so everything it answered for — the
    // whole delegated chain of updates — was undone.
    println!("\nledger after recovery: {} (publish was a loser)", db.value_of(ledger).unwrap());

    println!("\n== provenance chain of {ledger:?} (rebuilt by the forward pass) ==");
    for (i, hop) in db.provenance(ledger).iter().enumerate() {
        println!("  hop {i}: {} -> {} at {}", hop.from, hop.to, hop.lsn);
    }

    let pm = db.postmortem().expect("predecessor black box must be found");
    let pred = pm.get("predecessor").expect("predecessor section");
    println!(
        "\n== predecessor: record #{} frozen for '{}' at +{:.3}s ==",
        pred.get("seq").and_then(JsonValue::as_u64).unwrap_or(0),
        pred.get("reason").and_then(JsonValue::as_str).unwrap_or("?"),
        pred.get("at_us").and_then(JsonValue::as_u64).unwrap_or(0) as f64 / 1e6,
    );
    let spans = pred.get("final_spans").and_then(JsonValue::as_arr).expect("final spans");
    println!("last {} trace events before the crash:", spans.len());
    for ev in spans {
        println!(
            "  +{:>9.3}s {:<5} {:<18} txn={} payload={}",
            ev.get("ts_us").and_then(JsonValue::as_u64).unwrap_or(0) as f64 / 1e6,
            ev.get("kind").and_then(JsonValue::as_str).unwrap_or("?"),
            ev.get("name").and_then(JsonValue::as_str).unwrap_or("?"),
            ev.get("txn").and_then(JsonValue::as_u64).map_or("-".into(), |t| t.to_string()),
            ev.get("payload").and_then(JsonValue::as_u64).unwrap_or(0),
        );
    }

    if let Some(JsonValue::Obj(delta)) = pm.get("delta") {
        println!("\n== counter deltas (recovered - pre-crash, nonzero) ==");
        for (name, v) in delta {
            if let JsonValue::I64(n) = v {
                if *n != 0 {
                    println!("  {name:<32} {n:+}");
                }
            }
        }
    }
    println!("\nblack box left at {} — try: rh-postmortem {}", dir.display(), dir.display());
}
