//! Closure-parameter typing fixture, router side (lexed as
//! `crates/fixc/src/router.rs`; the engine is `closure_engine.rs`).
//! `savepoint` takes `gtxns` then `engine` — the declared order.
//! `write` runs `eng.write` inside `on_shard`'s callback, where `eng` is
//! the engine (`FnOnce(&mut Engine)`), not the router: resolving it to
//! the router's own `write` would predict a spurious `engine -> gtxns`
//! edge and a cycle. (Never compiled — lexed by tests/lints.rs.)

struct Router {
    gtxns: Mutex<Table>,
    engine: Mutex<Engine>,
}

impl Router {
    fn on_shard<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let mut engine = self.engine.lock();
        f(&mut engine)
    }

    fn write(&self, v: u32) {
        self.join(v);
        self.on_shard(|eng| eng.write(v));
    }

    fn join(&self, v: u32) {
        let g = self.gtxns.lock();
    }

    fn savepoint(&self) {
        let g = self.gtxns.lock();
        let e = self.engine.lock();
    }
}

impl Api for Router {
    fn write(&mut self, v: u32) {
        Router::write(self, v)
    }
}
