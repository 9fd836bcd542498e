//! Wire-level acceptance for the protocol-v3 time-travel ops: typed
//! `read_as_of` / `history_json` calls against a live file-backed
//! server, including a delegated commit whose provenance hop must
//! surface in the rendered `history.v1` document.

use rh_client::load::connect_with_retry;
use rh_common::{Lsn, ObjectId};
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::sharded::ShardedDb;
use rh_obs::json::{self, JsonValue};
use rh_server::{Server, ServerConfig};
use rh_wal::StableLog;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-tt-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn u64_of(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).expect(key)
}

#[test]
fn read_as_of_and_history_over_the_wire() {
    let dir = scratch("wire");
    let stable = StableLog::open_dir(&dir).expect("open dir");
    let db = ShardedDb::from(RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable));
    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = connect_with_retry(&addr).expect("connect");

    let ob = ObjectId(5);
    let t1 = c.begin().expect("begin");
    c.write(t1, ob, 10).expect("write");
    c.commit(t1).expect("commit");
    // "Now" resolves to the log tail on the server.
    assert_eq!(c.read_as_of(ob, Lsn::NULL).expect("as-of now"), 10);

    let t2 = c.begin().expect("begin");
    c.add(t2, ob, 5).expect("add");
    c.commit(t2).expect("commit");
    assert_eq!(c.read_as_of(ob, Lsn::NULL).expect("as-of now"), 15);

    // A delegated commit on a second object: t4 answers for t3's write.
    let ob2 = ObjectId(6);
    let t3 = c.begin().expect("begin");
    c.write(t3, ob2, 77).expect("write");
    let t4 = c.begin().expect("begin");
    c.delegate(t3, t4, &[ob2]).expect("delegate");
    c.abort(t3).expect("abort delegator");
    c.commit(t4).expect("commit delegatee");

    // The whole reenactable history of `ob`: both committed versions,
    // each answered for by its own committer (no delegation).
    let doc = json::parse(&c.history_json(ob, Lsn::FIRST, Lsn::NULL).expect("history"))
        .expect("valid json");
    assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("history.v1"));
    assert_eq!(u64_of(&doc, "object"), ob.raw());
    assert_eq!(doc.get("value").and_then(JsonValue::as_i64), Some(15));
    let versions = match doc.get("versions") {
        Some(JsonValue::Arr(v)) => v.clone(),
        other => panic!("versions must be an array, got {other:?}"),
    };
    assert_eq!(versions.len(), 2, "{doc:?}");
    assert_eq!(versions[0].get("value").and_then(JsonValue::as_i64), Some(10));
    assert_eq!(versions[1].get("value").and_then(JsonValue::as_i64), Some(15));
    for v in &versions {
        assert_eq!(u64_of(v, "invoker"), u64_of(v, "responsible"));
    }

    // The delegated object's single version: invoked by t3, answered
    // for by t4, with the hop that moved responsibility in between.
    let doc2 = json::parse(&c.history_json(ob2, Lsn::FIRST, Lsn::NULL).expect("history"))
        .expect("valid json");
    let versions2 = match doc2.get("versions") {
        Some(JsonValue::Arr(v)) => v.clone(),
        other => panic!("versions must be an array, got {other:?}"),
    };
    assert_eq!(versions2.len(), 1, "{doc2:?}");
    let v = &versions2[0];
    assert_eq!(v.get("value").and_then(JsonValue::as_i64), Some(77));
    assert_eq!(u64_of(v, "invoker"), t3.raw());
    assert_eq!(u64_of(v, "responsible"), t4.raw());
    let hops = match v.get("hops") {
        Some(JsonValue::Arr(h)) => h.clone(),
        other => panic!("hops must be an array, got {other:?}"),
    };
    assert_eq!(hops.len(), 1, "{v:?}");
    assert_eq!(u64_of(&hops[0], "from"), t3.raw());
    assert_eq!(u64_of(&hops[0], "to"), t4.raw());

    // Time travel proper: as of the commit that made the first version
    // durable, the second version's increment has not happened yet —
    // while as of the first *update* LSN, t1 is still in flight and
    // reenactment presumes abort, exactly like a crash there would.
    let first_committed = Lsn(u64_of(&versions[0], "committed_at"));
    assert_eq!(c.read_as_of(ob, first_committed).expect("as-of commit 1"), 10);
    let first_update = Lsn(u64_of(&versions[0], "lsn"));
    assert_eq!(c.read_as_of(ob, first_update).expect("as-of update 1"), 0);

    let db = server.shutdown().expect("drain");
    db.validate_scope_invariants();
    let _ = std::fs::remove_dir_all(&dir);
}
