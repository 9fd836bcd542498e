//! Bridges the lock-witness aggregates into the metrics registry.
//!
//! The witness lives in the `parking_lot` compat shim, below the
//! observability layer, so it cannot push into an [`rh_obs::Registry`]
//! itself. This module is the other half of that bargain: the
//! introspection endpoint's cadence sampler calls
//! [`sample_lock_witness`] once per tick, copying the witness's global
//! aggregates into `lockwitness.*` gauges so `/metrics`, `/timeseries`,
//! and the experiment artifacts see them alongside everything else.
//! When the witness is off this is one relaxed atomic load.

use rh_obs::{names, Registry};

/// Copies the lock-witness aggregates into `registry` as gauges
/// (absolute `set`s, like the absorbed-snapshot exporters). No-op when
/// the witness is disabled.
pub fn sample_lock_witness(registry: &Registry) {
    if !parking_lot::witness::enabled() {
        return;
    }
    let snap = parking_lot::witness::snapshot();
    registry.set(names::M_LW_SITES, snap.sites.len() as u64);
    registry.set(names::M_LW_ACQUIRES, snap.acquires());
    registry.set(names::M_LW_RELEASES, snap.releases);
    registry.set(names::M_LW_EDGES, snap.edges.len() as u64);
    registry.set(names::M_LW_CYCLES, snap.cycles.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridges_aggregates_when_enabled() {
        parking_lot::witness::set_enabled(true);
        let m = parking_lot::Mutex::named(0u32, "fixture.bridge_probe");
        *m.lock() += 1;
        let reg = Registry::new();
        sample_lock_witness(&reg);
        let snap = reg.snapshot();
        assert!(snap.counter(names::M_LW_SITES) >= 1);
        assert!(snap.counter(names::M_LW_ACQUIRES) >= 1);
        parking_lot::witness::set_enabled(false);
    }
}
