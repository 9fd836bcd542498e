//! The **eager** baseline (paper §3.1, Fig. 1; critiqued in §3.2).
//!
//! "The naïve implementation ... would be to apply each delegation to the
//! log as it is issued. That is, every time a delegation is issued, the
//! system traverses the log backwards modifying the records pertaining to
//! the object being delegated. This 'eager' approach carries high
//! performance costs ... due to the random nature of the accesses ... and
//! the fact that a single delegation will generate many accesses, in
//! principle sweeping the whole log."
//!
//! [`EagerDb`] implements that design honestly:
//!
//! * `delegate(t1, t2, ob)` sweeps the log backwards from the delegation
//!   point, performing `setTransID(K, t2)` (an in-place stable-log
//!   rewrite) on every record of an update to `ob` that `t1` is
//!   responsible for. Because delegation chains hand records across
//!   transactions, the sweep cannot stop at `t1`'s own backward chain (a
//!   record invoked by `t0` and delegated to `t1` lives on `t0`'s chain) —
//!   it linearly scans down to the oldest record `t1` owns, which is the
//!   "sweeping the whole log" cost the paper predicts.
//! * After the rewrite, the log *is* the history: recovery is plain
//!   UNDO/REDO keyed on the (rewritten) Trans-ID fields, with no
//!   delegation awareness at all.
//!
//! The engine is correct (the oracle-equivalence suite runs against it);
//! it exists so experiment E3 can measure what RH avoids.

use crate::api::TxnEngine;
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId, UpdateOp};
use rh_lock::{LockManager, LockMode};
use rh_storage::{BufferPool, Disk};
use rh_wal::record::{DelegateBody, RecordBody};
use rh_wal::{LogManager, StableLog};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

#[derive(Debug, Default)]
struct EagerTxn {
    last_lsn: Lsn,
    /// Exact LSNs of the update records this transaction currently owns
    /// (volatile; rebuilt from the rewritten Trans-IDs after a crash).
    owned: BTreeMap<Lsn, ObjectId>,
}

/// The eager-rewriting engine.
pub struct EagerDb {
    log: Arc<LogManager>,
    disk: Arc<Disk>,
    pool: BufferPool,
    locks: Arc<LockManager>,
    txns: HashMap<TxnId, EagerTxn>,
    next_txn: u64,
    pool_pages: usize,
}

impl EagerDb {
    /// Creates a fresh database.
    pub fn new() -> Self {
        Self::with_pool_pages(256)
    }

    /// Creates a fresh database with a given buffer-pool capacity.
    pub fn with_pool_pages(pool_pages: usize) -> Self {
        let disk = Disk::new();
        let log = Arc::new(LogManager::new());
        let pool = BufferPool::new(Arc::clone(&disk), pool_pages);
        EagerDb {
            log,
            disk,
            pool,
            locks: Arc::new(LockManager::new()),
            txns: HashMap::new(),
            next_txn: 0,
            pool_pages,
        }
    }

    /// The engine's log (metrics, dumps).
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The engine's disk.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    fn entry(&mut self, txn: TxnId) -> Result<&mut EagerTxn> {
        self.txns.get_mut(&txn).ok_or(RhError::UnknownTxn(txn))
    }

    fn log_for_txn(&mut self, txn: TxnId, body: RecordBody) -> Result<Lsn> {
        let prev = self.entry(txn)?.last_lsn;
        let lsn = self.log.append(txn, prev, body);
        self.entry(txn)?.last_lsn = lsn;
        Ok(lsn)
    }

    fn apply_update(&mut self, txn: TxnId, ob: ObjectId, op: UpdateOp) -> Result<()> {
        let lsn = self.log_for_txn(txn, RecordBody::Update { ob, op })?;
        self.entry(txn)?.owned.insert(lsn, ob);
        let cur = self.pool.read_object(ob, &*self.log)?;
        self.pool.write_object(ob, op.apply(cur), lsn, &*self.log)?;
        Ok(())
    }

    /// Undoes the given owned records in descending-LSN order, writing a
    /// CLR for each. Shared by abort and recovery.
    fn undo_records(
        log: &LogManager,
        pool: &mut BufferPool,
        last_lsns: &mut HashMap<TxnId, Lsn>,
        records: &[(Lsn, TxnId)],
        compensated: &HashSet<Lsn>,
    ) -> Result<()> {
        for &(lsn, owner) in records {
            if compensated.contains(&lsn) {
                continue;
            }
            let rec = log.read(lsn)?;
            let RecordBody::Update { ob, op } = rec.body else {
                return Err(RhError::CorruptLog { lsn, reason: "owned lsn is not an update" });
            };
            let cur = pool.read_object(ob, log)?;
            let prev = last_lsns.get(&owner).copied().unwrap_or(Lsn::NULL);
            let clr = log.append(
                owner,
                prev,
                RecordBody::Clr {
                    ob,
                    op: op.compensation(cur),
                    compensated: lsn,
                    undo_next: lsn.prev(),
                },
            );
            last_lsns.insert(owner, clr);
            pool.write_object(ob, op.undo(cur), clr, log)?;
        }
        Ok(())
    }

    /// Simulates a crash, returning the stable state.
    pub fn crash(self) -> (Arc<StableLog>, Arc<Disk>) {
        (self.log.stable(), Arc::clone(&self.disk))
    }

    /// Plain UNDO/REDO restart recovery over the (eagerly rewritten) log:
    /// no delegation processing whatsoever.
    pub fn recover(stable: Arc<StableLog>, disk: Arc<Disk>, pool_pages: usize) -> Result<Self> {
        let log = LogManager::attach(stable);
        let mut pool = BufferPool::new(Arc::clone(&disk), pool_pages);

        // Forward pass: redo everything, rebuild ownership from the
        // rewritten Trans-ID fields, classify winners/losers.
        let mut owned: HashMap<TxnId, BTreeMap<Lsn, ObjectId>> = HashMap::new();
        let mut committed: HashSet<TxnId> = HashSet::new();
        let mut seen: HashSet<TxnId> = HashSet::new();
        let mut compensated: HashSet<Lsn> = HashSet::new();
        let mut last_lsns: HashMap<TxnId, Lsn> = HashMap::new();
        let mut next_txn = 0u64;
        log.scan(Lsn::FIRST, log.curr_lsn(), |rec| {
            let lsn = rec.lsn;
            if !rec.txn.is_none() {
                seen.insert(rec.txn);
                last_lsns.insert(rec.txn, lsn);
                next_txn = next_txn.max(rec.txn.raw() + 1);
            }
            match rec.body {
                RecordBody::Update { ob, op } => {
                    owned.entry(rec.txn).or_default().insert(lsn, ob);
                    let page_lsn = pool.page_lsn_of(ob, &log)?;
                    if page_lsn.is_null() || page_lsn < lsn {
                        let cur = pool.read_object(ob, &log)?;
                        pool.write_object(ob, op.apply(cur), lsn, &log)?;
                    }
                }
                RecordBody::Clr { ob, op, compensated: c, .. } => {
                    compensated.insert(c);
                    let page_lsn = pool.page_lsn_of(ob, &log)?;
                    if page_lsn.is_null() || page_lsn < lsn {
                        let cur = pool.read_object(ob, &log)?;
                        pool.write_object(ob, op.apply(cur), lsn, &log)?;
                    }
                }
                RecordBody::Commit => {
                    committed.insert(rec.txn);
                    owned.remove(&rec.txn);
                }
                RecordBody::Abort => {
                    // Undo completed before the abort record was logged.
                    owned.remove(&rec.txn);
                }
                RecordBody::End => {
                    seen.remove(&rec.txn);
                }
                // Delegate records are inert: the eager rewrite already
                // moved the history; Begin/checkpoints carry no state.
                _ => {}
            }
            Ok(())
        })?;

        // Backward pass: undo loser-owned records in one global
        // descending order (random access pattern — these are exact
        // record positions, not clustered ranges).
        let losers: HashSet<TxnId> =
            seen.iter().copied().filter(|t| !committed.contains(t)).collect();
        let mut to_undo: Vec<(Lsn, TxnId)> = losers
            .iter()
            .flat_map(|t| owned.get(t).into_iter().flat_map(|m| m.keys().map(|&l| (l, *t))))
            .collect();
        to_undo.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
        Self::undo_records(&log, &mut pool, &mut last_lsns, &to_undo, &compensated)?;

        // Terminate losers.
        let mut loser_list: Vec<TxnId> = losers.into_iter().collect();
        loser_list.sort();
        for t in loser_list {
            let prev = last_lsns.get(&t).copied().unwrap_or(Lsn::NULL);
            let a = log.append(t, prev, RecordBody::Abort);
            log.append(t, a, RecordBody::End);
        }
        log.flush_all()?;

        Ok(EagerDb {
            log: Arc::new(log),
            disk,
            pool,
            locks: Arc::new(LockManager::new()),
            txns: HashMap::new(),
            next_txn,
            pool_pages,
        })
    }
}

impl Default for EagerDb {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnEngine for EagerDb {
    fn begin(&mut self) -> Result<TxnId> {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let lsn = self.log.append(txn, Lsn::NULL, RecordBody::Begin);
        self.txns.insert(txn, EagerTxn { last_lsn: lsn, owned: BTreeMap::new() });
        Ok(txn)
    }

    fn read(&mut self, txn: TxnId, ob: ObjectId) -> Result<Value> {
        self.entry(txn)?;
        self.locks.try_acquire(txn, ob, LockMode::Shared)?;
        self.pool.read_object(ob, &*self.log)
    }

    fn write(&mut self, txn: TxnId, ob: ObjectId, value: Value) -> Result<()> {
        self.entry(txn)?;
        self.locks.try_acquire(txn, ob, LockMode::Exclusive)?;
        let before = self.pool.read_object(ob, &*self.log)?;
        self.apply_update(txn, ob, UpdateOp::Write { before, after: value })
    }

    fn add(&mut self, txn: TxnId, ob: ObjectId, delta: Value) -> Result<()> {
        self.entry(txn)?;
        self.locks.try_acquire(txn, ob, LockMode::Increment)?;
        self.apply_update(txn, ob, UpdateOp::Add { delta })
    }

    fn delegate(&mut self, tor: TxnId, tee: TxnId, obs: &[ObjectId]) -> Result<()> {
        self.entry(tee)?;
        if tor == tee {
            return Err(RhError::SelfDelegation(tor));
        }
        let tor_entry = self.txns.get(&tor).ok_or(RhError::UnknownTxn(tor))?;
        for &ob in obs {
            if !tor_entry.owned.values().any(|&o| o == ob) {
                return Err(RhError::NotResponsible { txn: tor, object: ob });
            }
        }
        // The Fig. 1 delegate record + sweep. The sweep's lower bound is
        // the oldest record the delegator owns on the delegated objects
        // (with chained delegations this reaches far behind the
        // delegator's own begin record).
        let tor_bc = self.txns[&tor].last_lsn;
        let tee_bc = self.txns[&tee].last_lsn;
        let del_lsn = self.log.append(
            tor,
            tor_bc,
            RecordBody::Delegate { tee, tee_bc, body: DelegateBody::Objects(obs.to_vec()) },
        );
        self.txns.get_mut(&tor).unwrap().last_lsn = del_lsn;
        self.txns.get_mut(&tee).unwrap().last_lsn = del_lsn;

        let moving: Vec<Lsn> = self.txns[&tor]
            .owned
            .iter()
            .filter(|(_, &ob)| obs.contains(&ob))
            .map(|(&l, _)| l)
            .collect();
        let stop = moving.first().copied().unwrap_or(del_lsn);
        // K <- currLSN; while not at the oldest owned record: if LOG[K]
        // is an owned update to ob: setTransID(K, tee). Every position is
        // read — "in principle sweeping the whole log".
        let mut k = del_lsn.prev();
        loop {
            let rec = self.log.read(k)?;
            if rec.is_update() && self.txns[&tor].owned.contains_key(&k) {
                if let RecordBody::Update { ob, .. } = rec.body {
                    if obs.contains(&ob) {
                        self.log.rewrite_in_place(k, |r| r.txn = tee)?;
                    }
                }
            }
            if k == stop || k == Lsn::FIRST {
                break;
            }
            k = k.prev();
        }
        // Move volatile ownership and the locks.
        let tor_owned = &mut self.txns.get_mut(&tor).unwrap().owned;
        let mut moved: Vec<(Lsn, ObjectId)> = Vec::with_capacity(moving.len());
        for l in moving {
            if let Some(ob) = tor_owned.remove(&l) {
                moved.push((l, ob));
            }
        }
        let tee_owned = &mut self.txns.get_mut(&tee).unwrap().owned;
        for (l, ob) in moved {
            tee_owned.insert(l, ob);
        }
        for &ob in obs {
            self.locks.transfer(tor, tee, ob);
        }
        Ok(())
    }

    fn delegate_all(&mut self, tor: TxnId, tee: TxnId) -> Result<()> {
        let obs: Vec<ObjectId> = {
            let e = self.txns.get(&tor).ok_or(RhError::UnknownTxn(tor))?;
            let mut v: Vec<ObjectId> = e.owned.values().copied().collect();
            v.sort();
            v.dedup();
            v
        };
        if obs.is_empty() {
            // Nothing to move; still log the delegation for parity.
            self.entry(tee)?;
            if tor == tee {
                return Err(RhError::SelfDelegation(tor));
            }
            let tor_bc = self.txns[&tor].last_lsn;
            let tee_bc = self.txns[&tee].last_lsn;
            let lsn = self.log.append(
                tor,
                tor_bc,
                RecordBody::Delegate { tee, tee_bc, body: DelegateBody::All },
            );
            self.txns.get_mut(&tor).unwrap().last_lsn = lsn;
            self.txns.get_mut(&tee).unwrap().last_lsn = lsn;
        } else {
            self.delegate(tor, tee, &obs)?;
        }
        // Pass *all* access rights (see the RH engine's delegate_all):
        // locks without an owned update (e.g. after a partial rollback)
        // move too.
        self.locks.transfer_all(tor, tee);
        Ok(())
    }

    fn commit(&mut self, txn: TxnId) -> Result<()> {
        let lsn = self.log_for_txn(txn, RecordBody::Commit)?;
        self.log.flush_to(lsn)?;
        self.log_for_txn(txn, RecordBody::End)?;
        self.txns.remove(&txn);
        self.locks.release_all(txn);
        Ok(())
    }

    fn abort(&mut self, txn: TxnId) -> Result<()> {
        let entry = self.txns.get(&txn).ok_or(RhError::UnknownTxn(txn))?;
        let mut records: Vec<(Lsn, TxnId)> = entry.owned.keys().map(|&l| (l, txn)).collect();
        records.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
        let mut last_lsns = HashMap::from([(txn, entry.last_lsn)]);
        let none = HashSet::new();
        Self::undo_records(&self.log, &mut self.pool, &mut last_lsns, &records, &none)?;
        self.txns.get_mut(&txn).unwrap().last_lsn = last_lsns[&txn];
        let lsn = self.log_for_txn(txn, RecordBody::Abort)?;
        self.log.flush_to(lsn)?;
        self.log_for_txn(txn, RecordBody::End)?;
        self.txns.remove(&txn);
        self.locks.release_all(txn);
        Ok(())
    }

    fn savepoint(&mut self, txn: TxnId) -> Result<u64> {
        self.entry(txn)?;
        Ok(self.log.curr_lsn().raw())
    }

    fn rollback_to(&mut self, txn: TxnId, token: u64) -> Result<()> {
        // Undo owned records at/after the savepoint position, newest
        // first, and drop them from the volatile ownership map.
        let sp = Lsn(token);
        let entry = self.txns.get(&txn).ok_or(RhError::UnknownTxn(txn))?;
        let mut records: Vec<(Lsn, TxnId)> =
            entry.owned.range(sp..).map(|(&l, _)| (l, txn)).collect();
        records.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
        let mut last_lsns = HashMap::from([(txn, entry.last_lsn)]);
        let none = HashSet::new();
        Self::undo_records(&self.log, &mut self.pool, &mut last_lsns, &records, &none)?;
        let entry = self.txns.get_mut(&txn).expect("checked");
        entry.last_lsn = last_lsns[&txn];
        entry.owned.retain(|&l, _| l < sp);
        Ok(())
    }

    fn permit(&mut self, granter: TxnId, permittee: TxnId, ob: ObjectId) -> Result<()> {
        self.entry(granter)?;
        self.entry(permittee)?;
        self.locks.permit(granter, permittee, ob);
        Ok(())
    }

    fn crash_and_recover(self) -> Result<Self> {
        let pool_pages = self.pool_pages;
        let (stable, disk) = self.crash();
        Self::recover(stable, disk, pool_pages)
    }

    fn value_of(&mut self, ob: ObjectId) -> Result<Value> {
        self.pool.read_object(ob, &*self.log)
    }
}
