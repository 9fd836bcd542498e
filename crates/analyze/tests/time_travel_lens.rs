//! The model checker's time-travel lens over synthesized histories.
//!
//! The enumerator behind `--model-check` never emits `Savepoint` or
//! `RollbackTo`, so the exhaustive runs never put a CLR inside a
//! transaction that later commits. Histories from
//! [`sanitize`](rh_core::history::synth::sanitize) carry savepoints,
//! partial rollbacks, mid-history crashes and checkpoints; each one,
//! ended by a crash, runs through the same lens: `read_as_of` and
//! `history` against the §2.1 oracle after every commit, live and again
//! after recovery.

use proptest::prelude::*;
use rh_analyze::model::check_time_travel;
use rh_core::history::synth::{sanitize, RawStep, SynthOpts};
use rh_core::history::Event;

fn raw_steps() -> impl Strategy<Value = Vec<RawStep>> {
    proptest::collection::vec(any::<(u8, u8, u8, i8)>(), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn lens_holds_on_histories_with_partial_rollbacks(raw in raw_steps()) {
        let mut events = sanitize(&raw, SynthOpts::default());
        events.push(Event::Crash);
        let problems = check_time_travel(&events);
        prop_assert!(problems.is_empty(), "{:#?}\nhistory: {:?}", problems, events);
    }
}
