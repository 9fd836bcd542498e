//! Seeded transaction plans and the two ways the benchmark executes
//! them: over the wire through [`Connection`], and in process against
//! the engine's public API. Both executors can record a span around
//! each call into the layer they drive.
//!
//! Every plan writes objects no other plan touches (each thread owns a
//! range, and a sequence number never repeats), so the effects of an
//! acknowledged commit are exactly known: a write or an add of `v` to a
//! fresh object leaves `v`, and the delegation idiom's extra add leaves 1.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_client::{ClientError, Connection};
use rh_common::ops::Value;
use rh_common::{ObjectId, RhError};
use rh_core::{RhDb, ShardedDb, TxnEngine};
use std::collections::BTreeMap;
use std::time::Instant;

/// Bit position of an object range: one range is one routing unit of
/// `ShardMap::RANGE_SHIFT`, so range `r` lives in shard `r % shards`.
pub const RANGE_SHIFT: u32 = 26;

/// First object of range `r`.
pub fn range_base(r: u64) -> u64 {
    r << RANGE_SHIFT
}

/// Offset of the delegation idiom's extra object inside a range.
const EXTRA_OFFSET: u64 = 1 << 20;

/// One transaction: updates on fresh objects, an optional update in a
/// second shard, and whether its effects travel through delegation.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `(object, is_add, value)`, alternating write and add.
    pub updates: Vec<(ObjectId, bool, Value)>,
    /// An object in another shard, making the transaction cross-shard.
    pub remote: Option<(ObjectId, Value)>,
    /// Delegate to a second transaction, abort the first, commit the
    /// second (which also adds 1 to `extra`).
    pub delegate: bool,
    /// The delegatee's own object.
    pub extra: ObjectId,
}

impl Plan {
    /// Every effect an acknowledged commit must leave.
    pub fn effects(&self) -> Vec<(ObjectId, Value)> {
        let mut out: Vec<_> = self.updates.iter().map(|&(ob, _, v)| (ob, v)).collect();
        out.extend(self.remote);
        if self.delegate {
            out.push((self.extra, 1));
        }
        out
    }

    /// Objects the first transaction touched (what it delegates).
    pub fn touched(&self) -> Vec<ObjectId> {
        let mut out: Vec<_> = self.updates.iter().map(|u| u.0).collect();
        out.extend(self.remote.map(|r| r.0));
        out
    }
}

/// The shape of one thread's plans.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Updates per transaction.
    pub updates: usize,
    /// Probability of the delegation idiom.
    pub delegation: f64,
    /// Probability of a cross-shard update (0 for unsharded targets).
    pub cross_shard: f64,
}

/// A deterministic stream of plans over one private home range (and,
/// for cross-shard updates, one private remote range).
#[derive(Debug)]
pub struct PlanGen {
    rng: StdRng,
    mix: Mix,
    home: u64,
    remote: u64,
    seq: u64,
}

impl PlanGen {
    /// Plans for home range `home` and remote range `remote`.
    pub fn new(seed: u64, mix: Mix, home: u64, remote: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ home.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        PlanGen { rng, mix, home: range_base(home), remote: range_base(remote), seq: 0 }
    }

    /// The next plan.
    pub fn next_plan(&mut self) -> Plan {
        let seq = self.seq;
        self.seq += 1;
        let n = self.mix.updates as u64;
        assert!((seq + 1) * n < EXTRA_OFFSET, "plan sequence overflowed its range");
        let updates =
            (0..n).map(|k| (ObjectId(self.home + seq * n + k), k % 2 == 1, self.value())).collect();
        let remote = (self.mix.cross_shard > 0.0 && self.rng.random_bool(self.mix.cross_shard))
            .then(|| (ObjectId(self.remote + seq), self.value()));
        let delegate = self.mix.delegation > 0.0 && self.rng.random_bool(self.mix.delegation);
        Plan { updates, remote, delegate, extra: ObjectId(self.home + EXTRA_OFFSET + seq) }
    }

    fn value(&mut self) -> Value {
        self.rng.random_range(1..1_000_000i64)
    }
}

/// Raw durations (µs) per span name. Recording is off unless enabled,
/// so an untraced run pays one branch per call.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    by_name: BTreeMap<&'static str, Vec<f64>>,
    calls: u64,
}

impl Spans {
    /// A recorder; `on = false` records nothing but still counts calls.
    pub fn new(on: bool) -> Self {
        Spans { on, ..Spans::default() }
    }

    /// Runs `f`, recording its duration under `name` when on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.by_name.entry(name).or_default().push(t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Calls made through this recorder.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The samples under `name` (empty when none).
    pub fn take(&mut self, name: &str) -> Vec<f64> {
        self.by_name.remove(name).unwrap_or_default()
    }

    /// Every sample of every name.
    pub fn all(&self) -> Vec<f64> {
        self.by_name.values().flatten().copied().collect()
    }

    /// Merges another recorder into this one.
    pub fn absorb(&mut self, other: Spans) {
        self.calls += other.calls;
        for (k, v) in other.by_name {
            self.by_name.entry(k).or_default().extend(v);
        }
    }
}

/// Runs `plan` over the wire. On error the transactions are aborted
/// best-effort and the error returned; nothing is acknowledged then.
pub fn run_wire(conn: &mut Connection, plan: &Plan, spans: &mut Spans) -> Result<(), ClientError> {
    let t1 = spans.time("begin", || conn.begin())?;
    let mut open = vec![t1];
    let out = (|| {
        for &(ob, add, v) in &plan.updates {
            if add {
                spans.time("add", || conn.add(t1, ob, v))?;
            } else {
                spans.time("write", || conn.write(t1, ob, v))?;
            }
        }
        if let Some((ob, v)) = plan.remote {
            spans.time("write", || conn.write(t1, ob, v))?;
        }
        let committer = if plan.delegate {
            let t2 = spans.time("begin", || conn.begin())?;
            open.push(t2);
            spans.time("delegate", || conn.delegate(t1, t2, &plan.touched()))?;
            spans.time("abort", || conn.abort(t1))?;
            open.remove(0);
            spans.time("add", || conn.add(t2, plan.extra, 1))?;
            t2
        } else {
            t1
        };
        spans.time("commit", || conn.commit(committer))
    })();
    if out.is_err() {
        for t in open {
            let _ = conn.abort(t);
        }
    }
    out
}

/// Runs `plan` in process on one engine, splitting commit into its
/// log-append half (`commit_prepare`) and its force (`flush_to`).
pub fn run_engine(db: &mut RhDb, plan: &Plan, spans: &mut Spans) -> Result<(), RhError> {
    let t1 = spans.time("begin", || db.begin())?;
    for &(ob, add, v) in &plan.updates {
        if add {
            spans.time("add", || db.add(t1, ob, v))?;
        } else {
            spans.time("write", || db.write(t1, ob, v))?;
        }
    }
    if let Some((ob, v)) = plan.remote {
        spans.time("write", || db.write(t1, ob, v))?;
    }
    let committer = if plan.delegate {
        let t2 = spans.time("begin", || db.begin())?;
        spans.time("delegate", || db.delegate(t1, t2, &plan.touched()))?;
        spans.time("abort", || db.abort(t1))?;
        spans.time("add", || db.add(t2, plan.extra, 1))?;
        t2
    } else {
        t1
    };
    let lsn = spans.time("commit_prepare", || db.commit_prepare(committer))?;
    spans.time("flush_to", || db.log().flush_to(lsn))
}

/// Runs `plan` in process on a sharded engine; the commit of a
/// cross-shard plan (two-phase commit) is recorded as `twopc_commit`.
pub fn run_sharded(db: &ShardedDb, plan: &Plan, spans: &mut Spans) -> Result<(), RhError> {
    let t1 = db.begin()?;
    for &(ob, add, v) in &plan.updates {
        if add {
            db.add(t1, ob, v)?;
        } else {
            db.write(t1, ob, v)?;
        }
    }
    if let Some((ob, v)) = plan.remote {
        db.write(t1, ob, v)?;
    }
    let committer = if plan.delegate {
        let t2 = db.begin()?;
        db.delegate(t1, t2, &plan.touched())?;
        db.abort(t1)?;
        db.add(t2, plan.extra, 1)?;
        t2
    } else {
        t1
    };
    if plan.remote.is_some() {
        spans.time("twopc_commit", || db.commit(committer))
    } else {
        db.commit(committer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_never_share_objects() {
        let mix = Mix { updates: 4, delegation: 0.3, cross_shard: 0.25 };
        let a: Vec<_> = {
            let mut g = PlanGen::new(7, mix, 10, 31);
            (0..50).map(|_| g.next_plan().effects()).collect()
        };
        let mut g = PlanGen::new(7, mix, 10, 31);
        let b: Vec<_> = (0..50).map(|_| g.next_plan().effects()).collect();
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for (ob, _) in a.iter().flatten() {
            assert!(seen.insert(*ob), "object {ob:?} reused");
        }
        assert!(a.iter().any(|e| e.len() > 4), "some plans delegate or cross shards");
    }
}
