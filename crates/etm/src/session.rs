//! The ASSET primitives over any [`TxnEngine`].
//!
//! ASSET programs (§2.2) are written as `t = initiate(f); begin(t); ...
//! wait(t)`. [`EtmSession`] provides exactly those verbs with a
//! *sequential* task runtime: `begin` runs the transaction's body to
//! completion before returning, and `wait` reports the recorded outcome.
//! Sequential execution keeps the engine single-threaded (its locking
//! discipline is fail-fast) while preserving the shape of the paper's
//! code fragments; the concurrency the models care about — which
//! *transactions* overlap, who holds which locks, who is responsible for
//! which updates — is fully expressed, because transactions stay open
//! across task boundaries.

use crate::deps::{DepGraph, Dependency, Fate};
use rh_common::ops::Value;
use rh_common::{ObjectId, Result, RhError, TxnId};
use rh_core::TxnEngine;
use std::collections::HashMap;

/// A transaction body: runs with the session and its own id, returns
/// `Ok(true)` on success (the paper's `wait(t)` truthiness). `Send` so a
/// session can move to, or be shared across, threads.
pub type Task<E> = Box<dyn FnOnce(&mut EtmSession<E>, TxnId) -> Result<bool> + Send>;

/// Recorded outcome of a task run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Initiated, body not yet run (or no body).
    Pending,
    /// Body ran and returned this success flag.
    Ran(bool),
}

/// An ASSET session: one engine plus the primitive layer.
///
/// ```
/// use rh_etm::EtmSession;
/// use rh_core::engine::{RhDb, Strategy};
/// use rh_common::ObjectId;
///
/// let mut s = EtmSession::new(RhDb::new(Strategy::Rh));
/// // The paper's initiate(f)/begin/wait idiom:
/// let t = s.initiate(Box::new(|s, t| {
///     s.write(t, ObjectId(0), 42)?;
///     s.commit(t)?;
///     Ok(true)
/// })).unwrap();
/// s.begin(t).unwrap();
/// assert!(s.wait(t));
/// assert_eq!(s.value_of(ObjectId(0)).unwrap(), 42);
/// ```
pub struct EtmSession<E: TxnEngine> {
    engine: E,
    deps: DepGraph,
    tasks: HashMap<TxnId, Task<E>>,
    outcomes: HashMap<TxnId, Outcome>,
}

impl<E: TxnEngine> EtmSession<E> {
    /// Wraps an engine.
    pub fn new(engine: E) -> Self {
        EtmSession {
            engine,
            deps: DepGraph::new(),
            tasks: HashMap::new(),
            outcomes: HashMap::new(),
        }
    }

    /// Consumes the session, returning the engine (e.g. to crash it).
    pub fn into_engine(self) -> E {
        self.engine
    }

    /// Direct engine access for assertions and ad-hoc operations.
    pub fn engine(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The dependency graph (inspection).
    pub fn deps(&self) -> &DepGraph {
        &self.deps
    }

    // ---- ASSET primitives ------------------------------------------------

    /// `initiate(f)`: create a transaction whose body is `f`. The engine
    /// transaction starts now (so it can receive delegations and permits
    /// before its body runs), the body runs at [`EtmSession::begin`].
    pub fn initiate(&mut self, body: Task<E>) -> Result<TxnId> {
        let t = self.engine.begin()?;
        self.deps.register(t);
        self.tasks.insert(t, body);
        self.outcomes.insert(t, Outcome::Pending);
        Ok(t)
    }

    /// `initiate` with no body: a transaction driven directly through the
    /// session's operation passthroughs (the split/co-transaction models
    /// use these).
    pub fn initiate_empty(&mut self) -> Result<TxnId> {
        let t = self.engine.begin()?;
        self.deps.register(t);
        self.outcomes.insert(t, Outcome::Pending);
        Ok(t)
    }

    /// `begin(t)`: run the transaction's body to completion. A body
    /// error aborts the transaction (if still live) and records failure.
    pub fn begin(&mut self, t: TxnId) -> Result<()> {
        let Some(body) = self.tasks.remove(&t) else {
            return Err(RhError::Protocol("begin: transaction has no pending body"));
        };
        let result = body(self, t);
        let ok = match result {
            Ok(ok) => ok,
            Err(_) => {
                if self.deps.fate(t) == Fate::Active {
                    let _ = self.abort(t);
                }
                false
            }
        };
        self.outcomes.insert(t, Outcome::Ran(ok));
        Ok(())
    }

    /// `wait(t)`: the recorded outcome of `t`'s body (true = success).
    /// With the sequential runtime the body has always finished by the
    /// time `wait` is called; a committed/aborted transaction without a
    /// body reports its fate.
    pub fn wait(&self, t: TxnId) -> bool {
        match self.outcomes.get(&t) {
            Some(Outcome::Ran(ok)) => *ok,
            _ => match self.deps.fate(t) {
                Fate::Committed => true,
                Fate::Aborted => false,
                Fate::Active => false,
            },
        }
    }

    /// `form-dependency(kind, dependent, on)`.
    pub fn form_dependency(&mut self, kind: Dependency, dependent: TxnId, on: TxnId) -> Result<()> {
        self.deps.form(kind, dependent, on)
    }

    /// `permit(granter, permittee, ob)`.
    pub fn permit(&mut self, granter: TxnId, permittee: TxnId, ob: ObjectId) -> Result<()> {
        self.engine.permit(granter, permittee, ob)
    }

    /// `delegate(tor, tee, obs)`.
    pub fn delegate(&mut self, tor: TxnId, tee: TxnId, obs: &[ObjectId]) -> Result<()> {
        self.engine.delegate(tor, tee, obs)
    }

    /// `delegate(tor, tee)` — everything (the join idiom).
    pub fn delegate_all(&mut self, tor: TxnId, tee: TxnId) -> Result<()> {
        self.engine.delegate_all(tor, tee)
    }

    /// `commit(t)`: enforce commit-side dependencies, commit, and record
    /// the outcome in the dependency graph.
    pub fn commit(&mut self, t: TxnId) -> Result<()> {
        if self.deps.commit_blocker(t).is_some() {
            return Err(RhError::Protocol("commit blocked by an unsatisfied dependency"));
        }
        self.engine.commit(t)?;
        self.deps.committed(t);
        Ok(())
    }

    /// `abort(t)`, cascading along abort- and strong-commit-dependencies.
    pub fn abort(&mut self, t: TxnId) -> Result<()> {
        self.engine.abort(t)?;
        let mut queue = self.deps.aborted(t);
        while let Some(victim) = queue.pop() {
            if self.deps.fate(victim) != Fate::Active {
                continue;
            }
            self.engine.abort(victim)?;
            queue.extend(self.deps.aborted(victim));
        }
        Ok(())
    }

    // ---- operation passthroughs ------------------------------------------

    /// Reads an object within `t`.
    pub fn read(&mut self, t: TxnId, ob: ObjectId) -> Result<Value> {
        self.engine.read(t, ob)
    }

    /// Overwrites an object within `t`.
    pub fn write(&mut self, t: TxnId, ob: ObjectId, v: Value) -> Result<()> {
        self.engine.write(t, ob, v)
    }

    /// Adds to an object within `t`.
    pub fn add(&mut self, t: TxnId, ob: ObjectId, delta: Value) -> Result<()> {
        self.engine.add(t, ob, delta)
    }

    /// Non-transactional peek (assertions, reports).
    pub fn value_of(&mut self, ob: ObjectId) -> Result<Value> {
        self.engine.value_of(ob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::engine::{RhDb, Strategy};

    const A: ObjectId = ObjectId(0);

    fn session() -> EtmSession<RhDb> {
        EtmSession::new(RhDb::new(Strategy::Rh))
    }

    #[test]
    fn initiate_begin_wait_success() {
        let mut s = session();
        let t = s
            .initiate(Box::new(|s, t| {
                s.write(t, A, 5)?;
                s.commit(t)?;
                Ok(true)
            }))
            .unwrap();
        s.begin(t).unwrap();
        assert!(s.wait(t));
        assert_eq!(s.value_of(A).unwrap(), 5);
    }

    #[test]
    fn failing_body_aborts() {
        let mut s = session();
        let t = s
            .initiate(Box::new(|s, t| {
                s.write(t, A, 5)?;
                Err(RhError::Protocol("business rule violated"))
            }))
            .unwrap();
        s.begin(t).unwrap();
        assert!(!s.wait(t));
        assert_eq!(s.value_of(A).unwrap(), 0); // rolled back
    }

    #[test]
    fn body_returning_false_reports_failure_without_auto_abort() {
        let mut s = session();
        let t = s
            .initiate(Box::new(|s, t| {
                s.abort(t)?; // paper: transactions abort themselves on failure
                Ok(false)
            }))
            .unwrap();
        s.begin(t).unwrap();
        assert!(!s.wait(t));
    }

    #[test]
    fn begin_twice_is_a_protocol_error() {
        let mut s = session();
        let t = s.initiate(Box::new(|s, t| s.commit(t).map(|_| true))).unwrap();
        s.begin(t).unwrap();
        assert!(s.begin(t).is_err());
    }

    #[test]
    fn commit_dependency_enforced() {
        let mut s = session();
        let t1 = s.initiate_empty().unwrap();
        let t2 = s.initiate_empty().unwrap();
        s.form_dependency(Dependency::Commit, t1, t2).unwrap();
        assert!(s.commit(t1).is_err()); // t2 still active
        s.commit(t2).unwrap();
        s.commit(t1).unwrap();
    }

    #[test]
    fn abort_dependency_cascades_through_engine() {
        let mut s = session();
        let t1 = s.initiate_empty().unwrap();
        let t2 = s.initiate_empty().unwrap();
        s.write(t1, A, 9).unwrap();
        s.form_dependency(Dependency::Abort, t1, t2).unwrap();
        s.abort(t2).unwrap(); // must drag t1 down, undoing its write
        assert_eq!(s.value_of(A).unwrap(), 0);
        assert!(!s.wait(t1));
    }

    #[test]
    fn permit_passthrough_allows_shared_access() {
        let mut s = session();
        let t1 = s.initiate_empty().unwrap();
        let t2 = s.initiate_empty().unwrap();
        s.write(t1, A, 1).unwrap();
        assert!(s.read(t2, A).is_err());
        s.permit(t1, t2, A).unwrap();
        assert_eq!(s.read(t2, A).unwrap(), 1);
        s.commit(t1).unwrap();
        s.commit(t2).unwrap();
    }
}
