//! How much the observability layer costs when it is on, and that it
//! costs ~nothing when it is off.
//!
//! Two comparisons:
//!
//! * **tracer hot path** — `Tracer::point` on an enabled tracer (mutex +
//!   ring push + timestamp) vs a disabled one (a single branch). The
//!   disabled arm is the "no-op" bar every engine operation pays when
//!   tracing is off.
//! * **flight recorder** — the E1-style zero-delegation workload on a
//!   file-backed engine with the black-box recorder attached vs
//!   detached. Boxes are frozen on a server's cadence thread and at
//!   checkpoints, never on the commit path, so the two arms should
//!   match; `rh-bench --check-baselines` gates the pair ≤ 1.05×.
//! * **2PC tracing** — a run of cross-shard commits on a two-shard
//!   in-memory router with the phase tracers enabled (every commit
//!   carries a trace id; each 2PC edge lands in a shard ring) vs
//!   disabled. This is the tracing tentpole's whole-path cost, gated
//!   ≤ 10% by `rh-bench --check-baselines`.
//! * **lock witness** — the E1-style file-backed workload with the
//!   `parking_lot` lock-witness recording (held stacks, edge graph,
//!   hold histograms) vs off. The off arm is the production
//!   configuration — one relaxed atomic load per acquisition — and the
//!   witnessed arm is gated ≤ 1.10× of it by `--check-baselines`. (The
//!   in-memory 2PC workload is deliberately *not* the bar: a mem-only
//!   lock-per-microsecond loop would put any recording witness over
//!   10×; the budget is for witnessing real durability work.)
//!
//! Besides the usual Criterion medians, the run writes its rows to
//! `target/obs/BENCH_obs.json`; the first measured rows are checked in
//! at `crates/bench/baselines/BENCH_obs.json` for eyeball regression
//! comparison (the compat harness does no statistics).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rh_common::ObjectId;
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::history::replay_engine;
use rh_core::sharded::ShardedDb;
use rh_obs::trace::Tracer;
use rh_obs::{JsonValue, Stopwatch};
use rh_wal::StableLog;
use rh_workload::{boring, WorkloadSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const POINTS: u64 = 10_000;
/// Cross-shard commits per tracing-overhead workload run.
const TWO_PC_COMMITS: u64 = 100;

fn spec() -> WorkloadSpec {
    WorkloadSpec { txns: 200, updates_per_txn: 4, straggler_rate: 0.05, ..WorkloadSpec::default() }
}

fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-bench-obsoverhead-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh file-backed engine; `flight` controls the black-box recorder.
fn file_backed(flight: bool) -> (RhDb, PathBuf) {
    let dir = scratch();
    let stable = StableLog::open_dir(&dir).expect("bench log dir");
    let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
    if !flight {
        db.disable_flight_recorder();
    }
    (db, dir)
}

fn bench_tracer_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_tracer_points");
    group.throughput(Throughput::Elements(POINTS));
    group.bench_function("enabled", |b| {
        let tracer = Tracer::default();
        b.iter(|| {
            for i in 0..POINTS {
                tracer.point(black_box("bench_point"), i, i, 1, 0);
            }
        })
    });
    group.bench_function("disabled_noop", |b| {
        let tracer = Tracer::disabled();
        b.iter(|| {
            for i in 0..POINTS {
                tracer.point(black_box("bench_point"), i, i, 1, 0);
            }
        })
    });
    group.finish();
}

fn bench_flight_recorder(c: &mut Criterion) {
    let events = boring(&spec());
    let mut group = c.benchmark_group("obs_flight_recorder");
    group.sample_size(10);
    // Both arms replay the identical workload and pay the same teardown,
    // so the delta between them is the recorder alone.
    for (label, flight) in [("attached", true), ("detached", false)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || file_backed(flight),
                |(db, dir)| {
                    let db = replay_engine(db, &events).unwrap();
                    drop(db);
                    let _ = std::fs::remove_dir_all(&dir);
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// One tracing-overhead workload run: `TWO_PC_COMMITS` cross-shard
/// commits against a two-shard in-memory router. The traced arm tags
/// every commit with a trace id; the untraced arm disables the shard
/// tracers, turning every phase emission into its no-op branch — the
/// delta is the full cost of 2PC phase tracing.
fn sharded_2pc_workload(traced: bool) {
    let db = ShardedDb::new_mem(Strategy::Rh, 2, 0);
    if !traced {
        for k in 0..2 {
            db.shard_obs(k).expect("shard obs").tracer.set_enabled(false);
        }
    }
    for i in 0..TWO_PC_COMMITS {
        let t = db.begin().unwrap();
        // Even object ids land on shard 0, odd on shard 1 (shift 0).
        db.write(t, ObjectId(4 * i), 1).unwrap();
        db.write(t, ObjectId(4 * i + 2), 2).unwrap();
        db.write(t, ObjectId(4 * i + 1), 3).unwrap();
        db.write(t, ObjectId(4 * i + 3), 4).unwrap();
        if traced {
            db.commit_traced(t, i + 1).unwrap();
        } else {
            db.commit(t).unwrap();
        }
    }
}

fn bench_sharded_2pc_tracing(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_sharded_2pc");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TWO_PC_COMMITS));
    for (label, traced) in [("traced", true), ("untraced", false)] {
        group.bench_function(label, |b| b.iter(|| sharded_2pc_workload(black_box(traced))));
    }
    group.finish();
}

fn bench_lock_witness(c: &mut Criterion) {
    let events = boring(&spec());
    let mut group = c.benchmark_group("obs_lock_witness");
    group.sample_size(10);
    // Flight recorder attached in both arms; the delta is the witness.
    for (label, on) in [("witness_on", true), ("witness_off", false)] {
        group.bench_function(label, |b| {
            parking_lot::witness::set_enabled(on);
            b.iter_batched(
                || file_backed(true),
                |(db, dir)| {
                    let db = replay_engine(db, &events).unwrap();
                    drop(db);
                    let _ = std::fs::remove_dir_all(&dir);
                },
                criterion::BatchSize::LargeInput,
            );
            parking_lot::witness::set_enabled(false);
        });
    }
    group.finish();
}

/// Medians over `iters` timed calls (one untimed warmup), nanoseconds.
fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut times: Vec<u64> = (0..iters)
        .map(|_| {
            let sw = Stopwatch::start();
            f();
            sw.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Writes the overhead rows to `target/obs/BENCH_obs.json` (the
/// checked-in baseline at `crates/bench/baselines/BENCH_obs.json` is a
/// copy of this file from the first run).
fn export_rows(_c: &mut Criterion) {
    let mut rows: Vec<JsonValue> = Vec::new();
    let mut row = |name: &str, median: u64, unit: &str| {
        rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.to_string())),
            ("median_ns", JsonValue::U64(median)),
            ("unit", JsonValue::Str(unit.to_string())),
        ]));
    };

    let tracer = Tracer::default();
    let m = median_ns(30, || {
        for i in 0..POINTS {
            tracer.point(black_box("bench_point"), i, i, 1, 0);
        }
    });
    row("tracer_point_enabled", m / POINTS, "ns/point");
    let tracer = Tracer::disabled();
    let m = median_ns(30, || {
        for i in 0..POINTS {
            tracer.point(black_box("bench_point"), i, i, 1, 0);
        }
    });
    row("tracer_point_disabled", m / POINTS, "ns/point");

    let events = boring(&spec());
    for (name, flight) in [("workload_flight_attached", true), ("workload_flight_detached", false)]
    {
        let m = median_ns(5, || {
            let (db, dir) = file_backed(flight);
            let db = replay_engine(db, &events).unwrap();
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        });
        row(name, m, "ns/workload");
    }

    // Untraced first: the baseline checker reads the pair in row order
    // when applying the ≤10% tracing-overhead bar.
    for (name, traced) in [("sharded_2pc_untraced", false), ("sharded_2pc_traced", true)] {
        let m = median_ns(10, || sharded_2pc_workload(traced));
        row(name, m, "ns/workload");
    }

    // Witness-off first, same row-order convention for the ≤1.10× bar.
    // Interleaved pairs, min per arm: pairing cancels drift between
    // the arms and the min sheds fsync stalls (see rh-bench, which
    // measures the gate rows the same way).
    let once = |on: bool| {
        parking_lot::witness::set_enabled(on);
        let sw = Stopwatch::start();
        let (db, dir) = file_backed(true);
        let db = replay_engine(db, &events).unwrap();
        drop(db);
        let ns = sw.elapsed().as_nanos() as u64;
        parking_lot::witness::set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
        ns
    };
    once(false); // warmup
                 // Alternate which arm goes first so drift cannot systematically tax
                 // the second arm.
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    for i in 0..15 {
        if i % 2 == 0 {
            off = off.min(once(false));
            on = on.min(once(true));
        } else {
            on = on.min(once(true));
            off = off.min(once(false));
        }
    }
    row("workload_witness_off", off, "ns/workload");
    row("workload_witness_on", on, "ns/workload");

    let doc = JsonValue::obj(vec![
        ("bench", JsonValue::Str("obs_overhead".to_string())),
        (
            "workload",
            JsonValue::obj(vec![
                ("txns", JsonValue::U64(spec().txns as u64)),
                ("updates_per_txn", JsonValue::U64(spec().updates_per_txn as u64)),
            ]),
        ),
        ("rows", JsonValue::Arr(rows)),
    ]);
    // Benches run with the package as cwd; aim at the workspace target
    // dir, where CI archives `target/obs/*.json` from.
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/obs"));
    std::fs::create_dir_all(&dir).expect("create target/obs");
    let path = dir.join("BENCH_obs.json");
    std::fs::write(&path, doc.render_pretty()).expect("write BENCH_obs.json");
    println!("obs_overhead: wrote {}", path.display());
}

criterion_group!(
    benches,
    bench_tracer_points,
    bench_flight_recorder,
    bench_sharded_2pc_tracing,
    bench_lock_witness,
    export_rows
);
criterion_main!(benches);
