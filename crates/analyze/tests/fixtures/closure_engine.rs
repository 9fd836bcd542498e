//! Closure-parameter typing fixture, engine side (lexed as
//! `crates/fixc/src/engine.rs`; see `closure_router.rs`). The free
//! `write` helper goes through the `Api` trait, which the router also
//! implements — the decoy an untyped `eng.write` used to resolve to.
//! (Never compiled — lexed by tests/lints.rs.)

struct Engine {
    log: Vec<u32>,
}

impl Api for Engine {
    fn write(&mut self, v: u32) {
        self.log.push(v);
    }
}

fn write(db: &mut Engine, v: u32) {
    Api::write(db, v);
}
