//! Promotion is recovery: a read replica holds recovery's forward-pass
//! state and, when promoted, runs recovery's own backward tail. So a
//! replica that followed a primary's log must answer time-travel reads
//! exactly as the primary does, and once promoted must leave the state
//! a crash recovery of the primary's log leaves — the §2.1 oracle's.

use proptest::prelude::*;
use rh_common::codec::Codec;
use rh_common::Lsn;
use rh_core::engine::{DbConfig, RhDb, Strategy as EngineStrategy};
use rh_core::history::synth::{sanitize, RawStep, SynthOpts};
use rh_core::history::{replay_engine, Event, Oracle};
use rh_core::{ReplicaSet, TxnEngine};
use rh_wal::record::RecordBody;

fn raw_steps() -> impl Strategy<Value = Vec<RawStep>> {
    proptest::collection::vec(any::<(u8, u8, u8, i8)>(), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn promoting_a_replica_equals_recovering_the_primary(raw in raw_steps()) {
        let mut events = sanitize(&raw, SynthOpts { allow_crash: false, ..SynthOpts::default() });
        let db = replay_engine(RhDb::new(EngineStrategy::Rh), &events).expect("replay");
        db.log().flush_all().unwrap();
        let set = ReplicaSet::new_mem(EngineStrategy::Rh, 1, 0);
        let mut commits = Vec::new();
        let mut lsn = Lsn(0);
        while lsn.raw() < db.log().durable_len() {
            let rec = db.log().read(lsn).unwrap();
            if matches!(rec.body, RecordBody::Commit) {
                commits.push(lsn);
            }
            set.apply_frame(0, lsn, &rec.to_bytes()).unwrap();
            lsn = lsn.next();
        }
        events.push(Event::Crash);
        let oracle = Oracle::run(&events);
        for &at in &commits {
            for ob in oracle.touched() {
                prop_assert_eq!(set.read_as_of(ob, at).unwrap(), db.read_as_of(ob, at).unwrap());
                prop_assert_eq!(
                    set.history(ob, Lsn::FIRST, at).unwrap(),
                    db.history(ob, Lsn::FIRST, at).unwrap()
                );
            }
        }

        let promoted = set.promote().unwrap();
        let (stable, disk) = db.crash();
        let mut recovered = RhDb::recover(EngineStrategy::Rh, DbConfig::default(), stable, disk)
            .expect("recover");
        for ob in oracle.touched() {
            prop_assert_eq!(promoted.value_of(ob).unwrap(), oracle.value(ob));
            prop_assert_eq!(recovered.value_of(ob).unwrap(), oracle.value(ob));
        }
        // Not `forward.*`: recovery starts at the checkpoint, a replica at
        // the first record.
        let promotion = promoted.shard_recovery(0).expect("promotion leaves a report");
        let recovery = recovered.last_recovery().expect("recovery leaves a report");
        prop_assert_eq!(&promotion.losers, &recovery.losers);
        prop_assert_eq!(promotion.undo.undone, recovery.undo.undone);
    }
}
