//! L2 — lock acquisition order against the declared manifest.
//!
//! Deadlock freedom in this workspace rests on a global convention:
//! within any crate, nested lock acquisitions happen in one declared
//! order. The convention lived in reviewers' heads; [`MANIFEST`] writes
//! it down, and this rule checks code against it.
//!
//! Detection is lexical (documented approximation, DESIGN.md §10): an
//! acquisition is `<receiver> . lock|read|write ( )` with *empty*
//! argument lists (so `io::Write::write(buf)` never matches). A
//! `let`-bound guard is considered held until its enclosing block
//! closes; a temporary (no `let`) is checked against currently-held
//! guards but dies at the statement's `;`. Acquiring a manifest lock
//! while holding a later-ordered one — or nesting an *undeclared*
//! receiver with a declared one — is a finding.

use super::SourceFile;
use crate::findings::Finding;

/// The lock-order manifest: per crate prefix, receiver field names in
/// the order they must be acquired. Extending a crate's lock set means
/// extending this list — in review, next to the ordering argument.
pub const MANIFEST: &[(&str, &[&str])] = &[
    // rh-eos: the global order-sharing state. flush() takes the batch
    // queue first, then the applied-snapshot map.
    ("crates/eos/src/", &["batches", "snapshot"]),
    // rh-wal: segment/index state, then the master (durable-mark) cell.
    ("crates/wal/src/", &["state", "master"]),
    // rh-lockmgr: a single internal mutex — nesting anything under it
    // is a violation by construction.
    ("crates/lockmgr/src/", &["state"]),
    // rh-server: session table first, then the replication subscriber
    // registry (ship-loop bookkeeping never nests inside the session
    // table, but the order pins any future nesting below it). Engine
    // mutexes belong to the sharded router below.
    ("crates/server/src/", &["sessions", "subscribers"]),
    // rh-core sharded router: the global transaction table before any
    // shard's engine mutex (savepoint holds `gtxns` while marking each
    // participant shard). The decision-retirement queue (`retire`)
    // orders before the engines it drains into. The 2PC fault cell and
    // the provenance / introspection handles (`prov`, `sampler`,
    // `server`) never nest with either, but are declared so a future
    // nesting is forced through this order.
    (
        "crates/core/src/sharded/",
        &["gtxns", "fault", "retire", "engine", "prov", "sampler", "server"],
    ),
];

/// Methods that acquire (empty-argument calls only).
const ACQUIRERS: &[&str] = &["lock", "read", "write"];

fn order_for(path: &str) -> Option<&'static [&'static str]> {
    MANIFEST.iter().find(|(p, _)| path.starts_with(p)).map(|(_, o)| *o)
}

/// A held guard: brace depth it lives at, manifest rank (`None` for an
/// undeclared receiver), receiver name, and whether it was `let`-bound.
struct Held {
    depth: i32,
    rank: Option<usize>,
    recv: String,
    bound: bool,
}

/// Runs L2 over one file.
pub fn check(f: &SourceFile) -> Vec<Finding> {
    let Some(order) = order_for(&f.path) else {
        return Vec::new();
    };
    let code = f.code();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();
    let mut last_let_depth: Option<i32> = None;
    for (i, t) in code.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
        } else if t.is_punct(';') {
            // Temporaries die at the statement boundary.
            held.retain(|h| h.bound || h.depth < depth);
            last_let_depth = None;
        } else if t.is_ident("let") {
            last_let_depth = Some(depth);
        }
        // <recv> . acquirer ( )
        let is_acquire = ACQUIRERS.iter().any(|a| t.is_ident(a))
            && i >= 2
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.is_punct(')'));
        if !is_acquire {
            continue;
        }
        let recv = code[i - 2].text.clone();
        let rank = order.iter().position(|n| *n == recv);
        // Only reason about receivers the manifest knows, or undeclared
        // ones nested with known ones — lone unknown receivers (local
        // RwLocks in tests, etc.) are out of scope.
        for h in &held {
            let violation = match (h.rank, rank) {
                (Some(hr), Some(nr)) => hr >= nr, // out of order or re-entrant
                (Some(_), None) => true,          // undeclared under declared
                (None, Some(_)) => true,          // declared under undeclared
                (None, None) => false,
            };
            if violation {
                out.push(Finding {
                    rule: "L2",
                    file: f.path.clone(),
                    line: t.line,
                    message: format!(
                        "acquires `{recv}` while holding `{}`; manifest order for this crate is [{}]",
                        h.recv,
                        order.join(" < ")
                    ),
                });
            }
        }
        if rank.is_some() || held.iter().any(|h| h.rank.is_some()) {
            // `let g = x.lock();` binds the guard (held to block end);
            // `let n = x.lock().len();` binds a value and the guard is a
            // temporary — distinguished by whether the call closes the
            // statement.
            let binds_guard =
                last_let_depth == Some(depth) && code.get(i + 3).is_some_and(|n| n.is_punct(';'));
            held.push(Held { depth, rank, recv, bound: binds_guard });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::new("crates/eos/src/global.rs", src))
    }

    #[test]
    fn declared_order_passes() {
        let src = "fn flush(&self) { let mut b = self.batches.lock(); let mut s = self.snapshot.lock(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn reversed_order_fails() {
        let src = "fn bad(&self) { let s = self.snapshot.lock(); let b = self.batches.lock(); }";
        let got = run(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("holding `snapshot`"));
    }

    #[test]
    fn sequential_temporaries_pass() {
        // Guard of a temporary dies at `;` — this is the common
        // `self.batches.lock().push(x);` pattern, not nesting.
        let src = "fn f(&self) { self.snapshot.lock().clear(); self.batches.lock().push(1); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_dies_at_block_end() {
        let src = "fn f(&self) { { let s = self.snapshot.lock(); } let b = self.batches.lock(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn undeclared_receiver_nested_with_declared_fails() {
        let src = "fn f(&self) { let b = self.batches.lock(); let x = self.mystery.lock(); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let src = "fn f(&self) { let b = self.batches.lock(); file.write(buf); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn server_order_sessions_then_subscribers() {
        let path = "crates/server/src/conn.rs";
        let good = "fn f(&self) { let s = self.sessions.lock(); let r = self.subscribers.lock(); }";
        assert!(check(&SourceFile::new(path, good)).is_empty());
        // Reporting ship progress while holding the session table is the
        // declared order, but taking the session table under
        // `subscribers` is not.
        let bad = "fn f(&self) { let r = self.subscribers.lock(); let s = self.sessions.lock(); }";
        let got = check(&SourceFile::new(path, bad));
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("holding `subscribers`"));
    }

    #[test]
    fn unmanifested_crates_are_out_of_scope() {
        let src = "fn f(&self) { let s = self.snapshot.lock(); let b = self.batches.lock(); }";
        assert!(check(&SourceFile::new("crates/bench/src/x.rs", src)).is_empty());
    }
}
