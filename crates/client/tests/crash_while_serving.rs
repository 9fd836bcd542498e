//! Crash-while-serving: kill the server mid-load (statistically
//! mid-delegation), recover the directory, and hold recovery to the
//! client-side oracle.
//!
//! The contract under test is exactly the one a client may rely on:
//!
//! * every **acknowledged** commit's effects survive recovery exactly;
//! * every unacknowledged object is either untouched (`0`) or carries
//!   the value that was in flight — kill ambiguity allows both, but
//!   nothing else (each object is written by at most one transaction,
//!   ever, so there is no third legal value);
//! * the recovered engine passes its own scope invariants and leaves a
//!   postmortem behind.
//!
//! Runs under both rewrite strategies.

use rh_client::{ClientError, Connection};
use rh_common::ops::Value;
use rh_common::ObjectId;
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::sharded::ShardedDb;
use rh_core::TxnEngine;
use rh_server::{Server, ServerConfig};
use rh_wal::StableLog;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-crashserve-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Effects shared between the load threads and the verifier.
#[derive(Default)]
struct Oracle {
    /// Object → value, recorded only after the commit was acknowledged.
    acked: HashMap<ObjectId, Value>,
    /// Object → value for every write that was *sent*, acked or not.
    attempted: HashMap<ObjectId, Value>,
}

const THREADS: usize = 4;
const UPDATES: usize = 3;
const ACKS_BEFORE_KILL: u64 = 30;

// Shift 26, not 32: pages are `ob / 64` truncated to u32, so bases
// must stay below 2^38 to keep the per-thread ranges page-disjoint.
fn thread_base(tid: usize) -> u64 {
    (tid as u64 + 1) << 26
}

/// Drives transactions until the server dies under it. Every third
/// transaction routes its effects through a delegation chain, so with
/// four threads the kill lands mid-delegation with high probability.
fn client_thread(
    addr: String,
    tid: usize,
    oracle: Arc<Mutex<Oracle>>,
    acks: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) {
    let mut conn = match Connection::connect(&addr) {
        Ok(c) => c,
        Err(_) => return,
    };
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let base = thread_base(tid);
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let outcome = one_txn(&mut conn, base, seq, &oracle);
        seq += 1;
        match outcome {
            Ok(()) => {
                acks.fetch_add(1, Ordering::Relaxed);
            }
            // Any failure here means the server is gone (objects are
            // private, so no engine error is expected before the kill).
            Err(_) => break,
        }
    }
}

fn one_txn(
    conn: &mut Connection,
    base: u64,
    seq: u64,
    oracle: &Mutex<Oracle>,
) -> Result<(), ClientError> {
    let t1 = conn.begin()?;
    let mut effects = Vec::with_capacity(UPDATES + 1);
    let mut touched = Vec::with_capacity(UPDATES);
    for k in 0..UPDATES as u64 {
        let ob = ObjectId(base + seq * UPDATES as u64 + k);
        let v = (seq * 31 + k + 1) as Value;
        {
            let mut guard = oracle.lock().unwrap();
            guard.attempted.insert(ob, v);
        }
        if k % 2 == 0 {
            conn.write(t1, ob, v)?;
        } else {
            conn.add(t1, ob, v)?;
        }
        touched.push(ob);
        effects.push((ob, v));
    }
    if seq.is_multiple_of(3) {
        // Delegation chain: t2 takes responsibility, t1 aborts, t2
        // commits. A kill anywhere in here leaves t1/t2 as losers.
        let t2 = conn.begin()?;
        conn.delegate(t1, t2, &touched)?;
        conn.abort(t1)?;
        let extra = ObjectId(base + (1 << 20) + seq);
        {
            let mut guard = oracle.lock().unwrap();
            guard.attempted.insert(extra, 1);
        }
        conn.add(t2, extra, 1)?;
        effects.push((extra, 1));
        conn.commit(t2)?;
    } else {
        conn.commit(t1)?;
    }
    // The commit call returned: the server acknowledged durability.
    let mut guard = oracle.lock().unwrap();
    guard.acked.extend(effects);
    Ok(())
}

fn crash_and_recover(strategy: Strategy, tag: &str) {
    let dir = scratch(tag);
    let stable = StableLog::open_dir(&dir).expect("open dir");
    let db = RhDb::with_stable_log(strategy, DbConfig::default(), Arc::clone(&stable));
    // Crash fidelity: keep the "hardware" (stable log + disk) alive
    // across the crash, exactly as a machine restart would.
    let disk = Arc::clone(db.disk());
    let server =
        Server::bind("127.0.0.1:0", ShardedDb::from(db), ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let oracle = Arc::new(Mutex::new(Oracle::default()));
    let acks = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for tid in 0..THREADS {
        let (addr, oracle) = (addr.clone(), Arc::clone(&oracle));
        let (acks, stop) = (Arc::clone(&acks), Arc::clone(&stop));
        handles.push(std::thread::spawn(move || client_thread(addr, tid, oracle, acks, stop)));
    }

    // Let the workload establish itself, then pull the plug mid-flight.
    let mut waited = 0u32;
    while acks.load(Ordering::Relaxed) < ACKS_BEFORE_KILL && waited < 4000 {
        std::thread::sleep(Duration::from_millis(5));
        waited += 1;
    }
    assert!(acks.load(Ordering::Relaxed) >= ACKS_BEFORE_KILL, "workload never got going");
    server.force_stop();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }

    // No checkpoint ever ran, so the master record must still be null:
    // recovery owes us a full history replay.
    assert!(stable.master().is_null(), "a crash must not leave a checkpoint");
    let mut db = RhDb::recover(strategy, DbConfig::default(), stable, disk).expect("recover");

    let guard = oracle.lock().unwrap();
    assert!(guard.acked.len() as u64 >= ACKS_BEFORE_KILL, "oracle too thin to be meaningful");
    for (&ob, &v) in &guard.acked {
        let got = db.value_of(ob).expect("read back");
        assert_eq!(got, v, "acked effect lost or mangled at {ob:?} ({strategy:?})");
    }
    for (&ob, &v) in &guard.attempted {
        if guard.acked.contains_key(&ob) {
            continue;
        }
        let got = db.value_of(ob).unwrap_or(0);
        assert!(
            got == 0 || got == v,
            "unacked {ob:?} has impossible value {got} (wrote {v}, {strategy:?})"
        );
    }
    drop(guard);

    assert!(db.postmortem().is_some(), "recovery must leave a postmortem");
    db.validate_scope_invariants();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_load_recovers_to_oracle_rh() {
    crash_and_recover(Strategy::Rh, "rh");
}

#[test]
fn kill_mid_load_recovers_to_oracle_lazy() {
    crash_and_recover(Strategy::LazyRewrite, "lazy");
}
