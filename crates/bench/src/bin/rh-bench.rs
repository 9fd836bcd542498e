//! `rh-bench` — the CI bench-regression gate.
//!
//! ```text
//! rh-bench --check-baselines [--tolerance F]
//! rh-bench --measure NAME [--iters N]
//! ```
//!
//! `--check-baselines` re-runs the workload behind every row of the
//! checked-in baselines (`crates/bench/baselines/BENCH_server.json`,
//! `BENCH_obs.json`, `BENCH_history.json` — the time-travel
//! `read_as_of` rows — and `BENCH_repl.json` — the log-shipping
//! apply/commit/promote rows) on this machine, compares against the
//! recorded
//! medians with a relative tolerance (default ±25%, overridable with
//! `--tolerance` or `RH_BENCH_TOLERANCE`), writes the full comparison
//! to `target/obs/bench_delta.json`, and exits nonzero if any row
//! regressed. Sub-100ns rows additionally get an absolute slack of
//! 100ns — a timer tick on a loaded CI box is not a regression.
//!
//! The sharded serving row is held to a stronger bar than
//! no-regression: `serve_s4_t16_d30` must deliver at least 2.5× the
//! throughput of the *unsharded* `serve_t16_d30` baseline, which is the
//! headline scaling claim for range-sharding the engine. Sharding buys
//! parallel commit across cores, so the bar is only physical on a
//! machine with at least as many cores as shards — on smaller boxes
//! (`available_parallelism() < shards`) the ratio is printed as
//! information and the floor does not fail the run.
//!
//! The tracing rows get a same-machine bar on top of no-regression:
//! `sharded_2pc_traced` must land within 1.10× of `sharded_2pc_untraced`
//! *as measured in the same run*, the ≤10% whole-path tracing-overhead
//! budget. Comparing two fresh measurements sidesteps the cross-machine
//! noise the relative tolerance exists to absorb. The lock-witness rows
//! (`workload_witness_on` vs `workload_witness_off`, the E1-style
//! file-backed workload) get the same treatment: the witnessed run must
//! land within 1.10× of the witness-off run, whose per-acquisition cost
//! is one relaxed atomic load. The flight-recorder rows
//! (`workload_flight_attached` vs `workload_flight_detached`, the same
//! workload) get a 1.05× bar measured the same way: the recorder freezes
//! boxes on a server's cadence thread and at checkpoints, never on the
//! commit path, so attaching it must cost the workload nothing.
//!
//! `--measure NAME` runs one row's workload and prints the freshly
//! measured row, for regenerating baselines.

use rh_bench::serve_cycle::{self, CyclePoint};
use rh_obs::{JsonValue, Stopwatch};

/// Relative tolerance applied to every baseline comparison.
const DEFAULT_TOLERANCE: f64 = 0.25;
/// Absolute slack for rows whose baseline is under 100ns.
const ABSOLUTE_SLACK_NS: u64 = 100;
/// The sharded row must beat the matching unsharded row by this factor.
const SHARDED_SPEEDUP_FLOOR: f64 = 2.5;
/// The traced 2PC workload may cost at most this multiple of the
/// untraced run *measured in the same process* — a same-machine bar,
/// immune to the cross-machine noise the relative tolerance absorbs.
const TRACING_OVERHEAD_CEILING: f64 = 1.10;
/// The same 2PC workload under the lock-witness may cost at most this
/// multiple of the witness-off run measured in the same process — the
/// whole-path budget for the deadlock-witness instrumentation. The
/// witness-off arm is the production configuration: one relaxed atomic
/// load per acquisition (`parking_lot::witness::enabled`).
const WITNESS_OVERHEAD_CEILING: f64 = 1.10;
/// The same file-backed workload with the flight recorder attached may
/// cost at most this multiple of the detached run measured in the same
/// process.
const FLIGHT_OVERHEAD_CEILING: f64 = 1.05;
/// Cycles per serving point when re-measuring (median taken).
const SERVE_ITERS: usize = 3;

fn usage(reason: &str) -> ! {
    eprintln!("rh-bench: {reason}");
    eprintln!("usage: rh-bench --check-baselines [--tolerance F] | --measure NAME [--iters N]");
    std::process::exit(2);
}

fn baselines_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines"))
}

fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/obs"))
}

fn load_rows(file: &str) -> Vec<JsonValue> {
    let path = baselines_dir().join(file);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => usage(&format!("cannot read baseline {}: {e}", path.display())),
    };
    let doc = match rh_obs::json::parse(&text) {
        Ok(d) => d,
        Err(e) => usage(&format!("cannot parse {}: {e:?}", path.display())),
    };
    match doc.get("rows") {
        Some(JsonValue::Arr(rows)) => rows.clone(),
        _ => usage(&format!("{} has no rows array", path.display())),
    }
}

fn row_str(row: &JsonValue, key: &str) -> String {
    row.get(key).and_then(|v| v.as_str().map(String::from)).unwrap_or_default()
}

fn row_u64(row: &JsonValue, key: &str) -> u64 {
    row.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// One freshly measured value for a named baseline row.
struct Measured {
    /// Metric compared against the baseline (`txns_per_sec` for serving
    /// rows — higher is better; `median_ns` for obs rows — lower is
    /// better).
    value: u64,
    /// True if larger values are better for this row.
    higher_is_better: bool,
    /// Extra fields worth carrying into the delta artifact.
    extra: Vec<(&'static str, JsonValue)>,
}

/// The time-travel fixture, built once and shared by the three `asof_*`
/// rows (the fixture is the workload; only the query target varies).
fn asof_fixture() -> &'static rh_bench::time_travel::AsofFixture {
    static FIXTURE: std::sync::OnceLock<rh_bench::time_travel::AsofFixture> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(rh_bench::time_travel::build)
}

/// The replication feed fixture, built once and shared by the
/// `repl_apply_frame` and `repl_promote` rows (one shipped workload;
/// only what is timed over it varies).
fn repl_fixture() -> &'static rh_bench::replication::ReplFixture {
    static FIXTURE: std::sync::OnceLock<rh_bench::replication::ReplFixture> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(rh_bench::replication::build)
}

/// Re-runs the workload behind one baseline row.
fn measure(name: &str, iters: usize) -> Option<Measured> {
    if name.starts_with("asof_") {
        let fixture = asof_fixture();
        let target = fixture.target(name)?;
        let median = rh_bench::time_travel::median_asof_ns(fixture, target, 30.max(iters));
        return Some(Measured { value: median, higher_is_better: false, extra: Vec::new() });
    }
    if name.starts_with("repl_") {
        let median = match name {
            "repl_primary_commit" => rh_bench::replication::commit_ns_floor(60.max(iters)),
            "repl_apply_frame" => {
                rh_bench::replication::apply_ns_floor(repl_fixture(), 60.max(iters))
            }
            "repl_promote" => {
                rh_bench::replication::promote_ns_floor(repl_fixture(), 60.max(iters))
            }
            _ => return None,
        };
        return Some(Measured { value: median, higher_is_better: false, extra: Vec::new() });
    }
    if let Some(point) = CyclePoint::parse(name) {
        let (median_ns, fsyncs) = serve_cycle::median_cycle_ns(&point, iters);
        let commits = point.commits();
        return Some(Measured {
            value: serve_cycle::txns_per_sec(commits, median_ns),
            higher_is_better: true,
            extra: vec![
                ("median_ns", JsonValue::U64(median_ns)),
                ("commits", JsonValue::U64(commits)),
                ("fsyncs", JsonValue::U64(fsyncs)),
            ],
        });
    }
    let ns = match name {
        "tracer_point_enabled" => obs_tracer_ns(true),
        "tracer_point_disabled" => obs_tracer_ns(false),
        "workload_flight_attached" => obs_workload_ns(true),
        "workload_flight_detached" => obs_workload_ns(false),
        "sharded_2pc_traced" => obs_sharded_2pc_ns(true),
        "sharded_2pc_untraced" => obs_sharded_2pc_ns(false),
        "workload_witness_on" => obs_witness_workload_pair_ns().1,
        "workload_witness_off" => obs_witness_workload_pair_ns().0,
        _ => return None,
    };
    Some(Measured { value: ns, higher_is_better: false, extra: Vec::new() })
}

/// Median nanoseconds per `Tracer::point` call, matching the
/// `obs_overhead` bench's export exactly.
fn obs_tracer_ns(enabled: bool) -> u64 {
    use rh_obs::trace::Tracer;
    const POINTS: u64 = 10_000;
    let tracer = if enabled { Tracer::default() } else { Tracer::disabled() };
    let loop_ns = median_ns(30, || {
        for i in 0..POINTS {
            tracer.point(std::hint::black_box("bench_point"), i, i, 1, 0);
        }
    });
    loop_ns / POINTS
}

/// Median nanoseconds for the E1-style workload with or without the
/// flight recorder, matching the `obs_overhead` bench's export.
fn obs_workload_ns(flight: bool) -> u64 {
    use rh_core::engine::{DbConfig, RhDb, Strategy};
    use rh_core::history::replay_engine;
    use rh_wal::StableLog;
    use rh_workload::{boring, WorkloadSpec};
    let spec = WorkloadSpec {
        txns: 200,
        updates_per_txn: 4,
        straggler_rate: 0.05,
        ..WorkloadSpec::default()
    };
    let events = boring(&spec);
    let mut n = 0u64;
    median_ns(5, || {
        n += 1;
        let dir =
            std::env::temp_dir().join(format!("rh-bench-gate-obs-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stable = StableLog::open_dir(&dir).expect("gate log dir");
        let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
        if !flight {
            db.disable_flight_recorder();
        }
        let db = replay_engine(db, &events).expect("gate replay");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    })
}

/// Median nanoseconds for a run of cross-shard 2PC commits on a
/// two-shard in-memory router, with the shard tracers enabled (traced
/// commits) or disabled — matching the `obs_overhead` bench's export.
fn obs_sharded_2pc_ns(traced: bool) -> u64 {
    use rh_common::ObjectId;
    use rh_core::engine::Strategy;
    use rh_core::sharded::ShardedDb;
    const COMMITS: u64 = 100;
    median_ns(10, || {
        let db = ShardedDb::new_mem(Strategy::Rh, 2, 0);
        if !traced {
            for k in 0..2 {
                db.shard_obs(k).expect("shard obs").tracer.set_enabled(false);
            }
        }
        for i in 0..COMMITS {
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
    })
}

/// One timed run of the E1-style file-backed workload on a fresh engine
/// (`flight` attaches the flight recorder), nanoseconds.
fn e1_file_workload_ns(tag: &str, flight: bool) -> u64 {
    use rh_core::engine::{DbConfig, RhDb, Strategy};
    use rh_core::history::replay_engine;
    use rh_wal::StableLog;
    use rh_workload::{boring, WorkloadSpec};
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let spec = WorkloadSpec {
        txns: 200,
        updates_per_txn: 4,
        straggler_rate: 0.05,
        ..WorkloadSpec::default()
    };
    let events = boring(&spec);
    let n = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rh-bench-gate-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sw = Stopwatch::start();
    let stable = StableLog::open_dir(&dir).expect("gate log dir");
    let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
    if !flight {
        db.disable_flight_recorder();
    }
    let db = replay_engine(db, &events).expect("gate replay");
    drop(db);
    let ns = sw.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    ns
}

/// Times `once(false)` against `once(true)` as 15 *interleaved pairs*
/// (after one warmup), returning `(off_ns, on_ns, ratio × 1000)`: the min
/// per arm, and the median of the per-pair `on / off` ratios. Pairing
/// cancels machine drift between the arms; the two runs of a pair share
/// the machine's mood, so their ratio isolates the difference, and the
/// median sheds an fsync stall landing in one arm of one pair — either
/// would otherwise dominate a ≤1.10× bar on a loaded runner. The bar is
/// NOT the ratio of the mins, which a stall dodged by one arm would
/// decide.
fn interleaved_pairs(mut once: impl FnMut(bool) -> u64) -> (u64, u64, u64) {
    once(false); // warmup
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    let mut ratios = Vec::new();
    for i in 0..15 {
        // Alternate which arm goes first.
        let (o, w) = if i % 2 == 0 {
            (once(false), once(true))
        } else {
            let w = once(true);
            (once(false), w)
        };
        off = off.min(o);
        on = on.min(w);
        ratios.push(w as f64 / o as f64);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ratios.len() / 2];
    (off, on, (median * 1000.0) as u64)
}

/// The E1-style file-backed workload timed with the lock-witness off
/// and on, as `(off_ns, on_ns, ratio × 1000)` — matching the
/// `obs_overhead` bench's export. The flight recorder stays attached in
/// both arms (the production configuration), so the delta is the witness
/// alone; the off arm pays one relaxed atomic load per acquisition.
/// Cached: both rows and the overhead bar read one pass.
fn obs_witness_workload_pair_ns() -> (u64, u64, u64) {
    static PAIR: std::sync::OnceLock<(u64, u64, u64)> = std::sync::OnceLock::new();
    *PAIR.get_or_init(|| {
        interleaved_pairs(|on| {
            parking_lot::witness::set_enabled(on);
            let ns = e1_file_workload_ns("witness", true);
            parking_lot::witness::set_enabled(false);
            ns
        })
    })
}

/// The same workload with the flight recorder detached and attached, as
/// `(detached_ns, attached_ns, ratio × 1000)`, for the ≤1.05× bar.
fn obs_flight_workload_pair_ns() -> (u64, u64, u64) {
    static PAIR: std::sync::OnceLock<(u64, u64, u64)> = std::sync::OnceLock::new();
    *PAIR.get_or_init(|| interleaved_pairs(|on| e1_file_workload_ns("flight", on)))
}

/// Median over `iters` timed calls (one untimed warmup), nanoseconds.
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

/// Whether `measured` is an acceptable showing against `baseline`.
fn within(measured: u64, baseline: u64, higher_is_better: bool, tolerance: f64) -> bool {
    let floor_slack =
        if baseline < ABSOLUTE_SLACK_NS && !higher_is_better { ABSOLUTE_SLACK_NS } else { 0 };
    if higher_is_better {
        measured as f64 >= baseline as f64 * (1.0 - tolerance)
    } else {
        measured as f64 <= baseline as f64 * (1.0 + tolerance) + floor_slack as f64
    }
}

fn check_baselines(tolerance: f64) -> ! {
    let mut rows = load_rows("BENCH_server.json");
    rows.extend(load_rows("BENCH_obs.json"));
    rows.extend(load_rows("BENCH_history.json"));
    rows.extend(load_rows("BENCH_repl.json"));

    // The unsharded 16-thread/30%-delegation baseline anchors the
    // sharded speedup claim.
    let t16_d30_baseline = rows
        .iter()
        .find(|r| row_str(r, "name") == "serve_t16_d30")
        .map(|r| row_u64(r, "txns_per_sec"))
        .unwrap_or(0);

    let mut deltas: Vec<JsonValue> = Vec::new();
    let mut failures = 0usize;
    let mut measured: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for row in &rows {
        let name = row_str(row, "name");
        let Some(m) = measure(&name, SERVE_ITERS) else {
            println!("rh-bench: SKIP {name} (no measurement defined)");
            continue;
        };
        measured.insert(name.clone(), m.value);
        let key = if m.higher_is_better { "txns_per_sec" } else { "median_ns" };
        let baseline = row_u64(row, key);
        let mut ok = within(m.value, baseline, m.higher_is_better, tolerance);
        let mut bar = String::new();
        if name == "serve_s4_t16_d30" && t16_d30_baseline > 0 {
            let shards = CyclePoint::parse(&name).map_or(4, |p| p.shards);
            let cores =
                std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);
            let floor = (t16_d30_baseline as f64 * SHARDED_SPEEDUP_FLOOR) as u64;
            let ratio = m.value as f64 / t16_d30_baseline as f64;
            if cores < shards {
                // One engine per shard can only commit in parallel on
                // distinct cores; on a smaller box the floor measures
                // the scheduler, not the sharding.
                bar = format!(
                    " (speedup bar skipped: {cores} core(s) < {shards} shards; \
                     measured {ratio:.2}x unsharded t16_d30)"
                );
            } else {
                if m.value < floor {
                    ok = false;
                }
                bar = format!(
                    " (speedup bar: >= {floor} = {SHARDED_SPEEDUP_FLOOR}x unsharded t16_d30, \
                     measured {ratio:.2}x)"
                );
            }
        }
        if name == "sharded_2pc_traced" {
            // Same-run comparison: the untraced row precedes this one in
            // the baseline file, so its fresh measurement is already in
            // hand (re-measure as a fallback if the file was reordered).
            let untraced = measured
                .get("sharded_2pc_untraced")
                .copied()
                .unwrap_or_else(|| obs_sharded_2pc_ns(false));
            let ceiling = (untraced as f64 * TRACING_OVERHEAD_CEILING) as u64;
            let ratio = m.value as f64 / untraced as f64;
            if m.value > ceiling {
                ok = false;
            }
            bar = format!(
                " (overhead bar: <= {ceiling} = {TRACING_OVERHEAD_CEILING}x untraced measured \
                 {untraced}, ratio {ratio:.3}x)"
            );
        }
        if name == "workload_flight_attached" {
            // Same-run paired comparison against the detached arm, gated
            // on the median per-pair ratio like the witness bar below.
            let (detached, _, ratio_milli) = obs_flight_workload_pair_ns();
            let ratio = ratio_milli as f64 / 1000.0;
            if ratio > FLIGHT_OVERHEAD_CEILING {
                ok = false;
            }
            bar = format!(
                " (overhead bar: median paired ratio {ratio:.3}x <= \
                 {FLIGHT_OVERHEAD_CEILING}x; detached floor {detached})"
            );
        }
        if name == "workload_witness_on" {
            // Same-run comparison against the witness-off arm, like the
            // tracing bar above — both arms come from the one cached
            // interleaved-pair measurement, and the gated figure is the
            // median per-pair ratio (robust to an fsync stall landing in
            // one arm of one pair).
            let (off, _, ratio_milli) = obs_witness_workload_pair_ns();
            let ratio = ratio_milli as f64 / 1000.0;
            if ratio > WITNESS_OVERHEAD_CEILING {
                ok = false;
            }
            bar = format!(
                " (overhead bar: median paired ratio {ratio:.3}x <= \
                 {WITNESS_OVERHEAD_CEILING}x; witness-off floor {off})"
            );
        }
        let delta =
            if baseline > 0 { (m.value as f64 - baseline as f64) / baseline as f64 } else { 0.0 };
        println!(
            "rh-bench: {} {name}: {key} baseline={baseline} measured={} ({:+.1}%){bar}",
            if ok { "ok  " } else { "FAIL" },
            m.value,
            delta * 100.0,
        );
        if !ok {
            failures += 1;
        }
        let mut fields = vec![
            ("name", JsonValue::Str(name)),
            ("metric", JsonValue::Str(key.to_string())),
            ("baseline", JsonValue::U64(baseline)),
            ("measured", JsonValue::U64(m.value)),
            ("delta_pct", JsonValue::Str(format!("{:+.1}", delta * 100.0))),
            ("ok", JsonValue::Bool(ok)),
        ];
        fields.extend(m.extra);
        deltas.push(JsonValue::obj(fields));
    }

    let doc = JsonValue::obj(vec![
        ("tolerance", JsonValue::Str(format!("{tolerance}"))),
        ("failures", JsonValue::U64(failures as u64)),
        ("rows", JsonValue::Arr(deltas)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create target/obs");
    let path = dir.join("bench_delta.json");
    std::fs::write(&path, doc.render_pretty()).expect("write bench_delta.json");
    println!("rh-bench: wrote {}", path.display());

    if failures > 0 {
        eprintln!("rh-bench: {failures} row(s) regressed beyond ±{:.0}%", tolerance * 100.0);
        std::process::exit(1);
    }
    println!("rh-bench: all rows within ±{:.0}%", tolerance * 100.0);
    std::process::exit(0);
}

fn measure_one(name: &str, iters: usize) -> ! {
    match measure(name, iters) {
        Some(m) => {
            let mut fields = vec![
                ("name", JsonValue::Str(name.to_string())),
                (
                    if m.higher_is_better { "txns_per_sec" } else { "median_ns" },
                    JsonValue::U64(m.value),
                ),
            ];
            fields.extend(m.extra);
            println!("{}", JsonValue::obj(fields).render_pretty());
            std::process::exit(0);
        }
        None => usage(&format!("no measurement defined for row {name}")),
    }
}

fn main() {
    let mut tolerance = match std::env::var("RH_BENCH_TOLERANCE") {
        Ok(v) => v.parse().unwrap_or(DEFAULT_TOLERANCE),
        Err(_) => DEFAULT_TOLERANCE,
    };
    let mut check = false;
    let mut measure_name: Option<String> = None;
    let mut iters = SERVE_ITERS;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| match argv.next() {
            Some(v) => v,
            None => usage(&format!("{name} needs a value")),
        };
        match flag.as_str() {
            "--check-baselines" => check = true,
            "--tolerance" => match value("--tolerance").parse() {
                Ok(f) => tolerance = f,
                Err(_) => usage("--tolerance needs a float"),
            },
            "--measure" => measure_name = Some(value("--measure")),
            "--iters" => match value("--iters").parse() {
                Ok(n) => iters = n,
                Err(_) => usage("--iters needs an integer"),
            },
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if let Some(name) = measure_name {
        measure_one(&name, iters);
    }
    if check {
        check_baselines(tolerance);
    }
    usage("pass --check-baselines or --measure NAME");
}
