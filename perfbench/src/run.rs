//! One benchmark run: build a crashed image, restart `rh-serve` on
//! copies of it, drive the workload's load against the warm server,
//! check every answer against the oracle, and collect the metrics.

use crate::history::{self, Probe};
use crate::layers::{self, ratio, StatsDelta, StatsDoc};
use crate::plan::{self, range_base, Mix, Plan, PlanGen, Spans};
use crate::serve::{self, Scratch, ServeChild};
use crate::stats::{median, Samples, TAIL_SAMPLES};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_client::Connection;
use rh_common::ops::Value;
use rh_common::{Lsn, ObjectId};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, each stressing a different set of layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection, unsharded, 4 updates, no delegation: latency
    /// bound in the client, the session threads and the log force.
    OltpT1,
    /// Two connections, two shards, 30% delegation, 25% cross-shard:
    /// the engine mutex, scope tables, `delegate`, 2PC and group commit.
    DelegT2S2,
    /// Time-travel reads beside an open-loop writer over a fixed crashed
    /// history, after a timed restart from it.
    HistoryRestart,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::OltpT1, Workload::DelegT2S2, Workload::HistoryRestart];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpT1 => "oltp_t1",
            Workload::DelegT2S2 => "deleg_t2_s2",
            Workload::HistoryRestart => "history_restart",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shards(self) -> usize {
        if self == Workload::DelegT2S2 {
            2
        } else {
            1
        }
    }

    /// Load threads (each with its own connection) writing transactions.
    fn writers(self) -> usize {
        if self == Workload::DelegT2S2 {
            2
        } else {
            1
        }
    }

    fn mix(self) -> Mix {
        match self {
            Workload::DelegT2S2 => Mix { updates: 4, delegation: 0.3, cross_shard: 0.25 },
            _ => Mix { updates: 4, delegation: 0.0, cross_shard: 0.0 },
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes for the self-test; every check still runs.
    pub smoke: bool,
    /// Corrupts one expected value, so a correct server must fail the
    /// run (the self-test's negative case).
    pub corrupt_oracle: bool,
    /// Where scratch directories go.
    pub scratch_root: PathBuf,
}

/// Fixed sizes of one run: counts, never durations, except the window.
struct Sizes {
    setup_reps: usize,
    /// Set-up repeats past `setup_reps` until this much time is spent.
    setup_budget_s: f64,
    restarts: u64,
    preload_txns: usize,
    losers: u64,
    warmup: Duration,
    asof_probes: usize,
    history_txns: u64,
    inproc_plans: usize,
    inproc_probes: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                setup_reps: 1,
                setup_budget_s: 0.0,
                restarts: 2,
                preload_txns: 20,
                losers: 2,
                warmup: Duration::from_millis(50),
                asof_probes: 40,
                history_txns: 160,
                inproc_plans: 40,
                inproc_probes: 20,
            }
        } else {
            Sizes {
                setup_reps: 7,
                setup_budget_s: 1.0,
                restarts: 15,
                preload_txns: 300,
                losers: 4,
                warmup: Duration::from_millis(500),
                asof_probes: 3000,
                history_txns: 600,
                inproc_plans: 1000,
                inproc_probes: 200,
            }
        }
    }
}

/// Most set-up repetitions of one run.
const SETUP_MAX_REPS: usize = 41;

/// Commits per second of `history_restart`'s open-loop writer.
const WRITER_RATE: f64 = 100.0;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics of this run (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// Transactions and time-travel probes attempted under load.
    pub attempted: u64,
    /// Of which failed (errors and BUSY replies, probes not answered).
    pub failed: u64,
    /// Every oracle disagreement, described.
    pub divergences: Vec<String>,
    /// Human-readable lines: sample counts, tails, set-up details.
    pub notes: Vec<String>,
    /// The calibration fsync floor, µs.
    pub fsync_floor_us: f64,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.divergences.is_empty()
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    fn diverged(&mut self, what: String) {
        self.divergences.push(what);
    }

    /// Counts a load phase's transactions into `attempted` and `failed`.
    fn count(&mut self, w: &WriteOut) {
        self.attempted += w.attempted;
        self.failed += w.failed;
    }
}

/// A crashed database directory and what a restart must serve from it.
struct Image {
    dir: PathBuf,
    /// Values every object must hold after restart (losers' objects: 0).
    expect: Vec<(ObjectId, Value)>,
    /// Time-travel probes with their oracle answers.
    probes: Vec<Probe>,
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn client<T>(what: &str, r: rh_client::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Builds the closed-loop workloads' image through the server itself:
/// a fixed count of preload transactions (recording each commit's
/// durable LSN for time-travel probes), a few in-flight losers, then a
/// SIGKILL.
fn preload_image(dir: PathBuf, cfg: &Config, sizes: &Sizes) -> Result<Image, String> {
    let shards = cfg.workload.shards();
    let server = ServeChild::spawn(&dir, shards)?;
    let mut conn = server.connect()?;
    let mix = Mix { updates: 4, delegation: 0.0, cross_shard: 0.0 };
    let mut gens: Vec<PlanGen> =
        (1..=shards as u64).map(|r| PlanGen::new(cfg.seed, mix, r, r)).collect();
    let mut last_lsn = vec![None; gens.len()];
    let (mut expect, mut probes) = (Vec::new(), Vec::new());
    let mut quiet = Spans::new(false);
    for i in 0..sizes.preload_txns {
        let g = i % gens.len();
        let p = gens[g].next_plan();
        client("preload", plan::run_wire(&mut conn, &p, &mut quiet))?;
        let effects = p.effects();
        let lsn = client("durable", conn.durable(effects[0].0))?.saturating_sub(1);
        for &(ob, v) in &effects {
            probes.push(Probe { ob, lsn: Lsn(lsn), expect: v });
            if let Some(before) = last_lsn[g] {
                probes.push(Probe { ob, lsn: Lsn(before), expect: 0 });
            }
        }
        expect.extend(effects);
        last_lsn[g] = Some(lsn);
    }
    let mut lconn = server.connect()?;
    for j in 0..sizes.losers {
        let t = client("loser begin", lconn.begin())?;
        for k in 0..2 {
            let ob = ObjectId(range_base(3 + j % shards as u64) + 2 * j + k);
            client("loser write", lconn.write(t, ob, 1000 + j as Value))?;
            expect.push((ob, 0));
        }
    }
    // One more commit per shard forces the log past the losers' updates,
    // so the crash leaves them durable and restart has work to undo.
    for g in gens.iter_mut() {
        let p = g.next_plan();
        client("closing commit", plan::run_wire(&mut conn, &p, &mut quiet))?;
        expect.extend(p.effects());
    }
    server.crash();
    Ok(Image { dir, expect, probes })
}

/// Builds `history_restart`'s image in process.
fn history_image(dir: PathBuf, cfg: &Config, sizes: &Sizes) -> Result<Image, String> {
    let oracle = history::build(&dir, cfg.seed, sizes.history_txns)?;
    let probes = oracle.probes(cfg.seed, 4096);
    Ok(Image { dir, expect: oracle.expect, probes })
}

/// Reads every expected value back; each disagreement is recorded.
fn verify(conn: &mut Connection, expect: &[(ObjectId, Value)], what: &str, out: &mut Outcome) {
    let mut wrong = 0usize;
    for &(ob, v) in expect {
        match conn.value_of(ob) {
            Ok(got) if got == v => {}
            other => {
                wrong += 1;
                if wrong <= 3 {
                    out.diverged(format!("{what}: object {} served {other:?}, expected {v}", ob.0));
                }
            }
        }
    }
    if wrong > 3 {
        out.diverged(format!("{what}: {} more objects diverged", wrong - 3));
    }
    out.notes.push(format!("{what}: {} objects checked, {wrong} diverged", expect.len()));
}

/// What the write side of a window produced.
#[derive(Debug, Default)]
struct WriteOut {
    lat_us: Vec<f64>,
    /// When each acknowledged transaction was acknowledged.
    acks: Vec<Instant>,
    late_us: Vec<f64>,
    acked: Vec<(ObjectId, Value)>,
    attempted: u64,
    failed: u64,
    spans: Spans,
    elapsed_s: f64,
}

impl WriteOut {
    fn absorb(&mut self, o: WriteOut) {
        self.lat_us.extend(o.lat_us);
        self.acks.extend(o.acks);
        self.late_us.extend(o.late_us);
        self.acked.extend(o.acked);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.spans.absorb(o.spans);
    }

    fn tps(&self) -> f64 {
        ratio(self.lat_us.len() as f64, self.elapsed_s)
    }

    /// The commit rate of each of ten consecutive equal slices of the
    /// acks; their median is `commit_tps`, which a stall confined to a
    /// few slices cannot move.
    fn slice_rates(&self) -> Vec<f64> {
        let mut acks = self.acks.clone();
        acks.sort();
        let per = (acks.len() / 10).max(2);
        acks.chunks_exact(per)
            .map(|c| ratio((per - 1) as f64, (c[per - 1] - c[0]).as_secs_f64()))
            .collect()
    }
}

/// What a stream of time-travel probes produced.
#[derive(Debug, Default)]
struct ProbeOut {
    lat_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    spans: Spans,
}

impl ProbeOut {
    fn absorb(&mut self, o: ProbeOut) {
        self.lat_us.extend(o.lat_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.spans.absorb(o.spans);
    }
}

/// Checks a stream of time-travel probes: every probe must be answered,
/// every answer must equal the oracle, and some must have been answered
/// at all, or the run fails. The probes count into `attempted`/`failed`.
fn check_probes(probe: &ProbeOut, out: &mut Outcome) {
    let answered = probe.lat_us.len();
    if probe.wrong > 0 {
        out.diverged(format!("read_as_of: {} of {answered} answers diverged", probe.wrong));
    }
    if probe.failed > 0 {
        out.diverged(format!(
            "read_as_of: {} of {} probes got no answer",
            probe.failed, probe.attempted
        ));
    }
    if answered == 0 {
        out.diverged("read_as_of: no probe was answered".to_string());
    }
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    out.notes.push(format!(
        "read_as_of: {answered} answers checked, {} diverged, {} unanswered",
        probe.wrong, probe.failed
    ));
}

/// One plan over the wire, timed from `due` and tallied.
fn one_txn(conn: &mut Connection, g: &mut PlanGen, due: Instant, out: &mut WriteOut) {
    let p = g.next_plan();
    out.attempted += 1;
    match plan::run_wire(conn, &p, &mut out.spans) {
        Ok(()) => {
            out.lat_us.push(us(due));
            out.acks.push(Instant::now());
            out.acked.extend(p.effects());
        }
        Err(_) => out.failed += 1,
    }
}

/// Closed loop: each connection runs plans back to back until `secs`
/// have passed.
fn closed_window(
    conns: &mut [Connection],
    gens: &mut [PlanGen],
    secs: f64,
    traced: bool,
) -> WriteOut {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut total = WriteOut { spans: Spans::new(traced), ..WriteOut::default() };
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(gens.iter_mut())
            .map(|(conn, g)| {
                s.spawn(move || {
                    let mut out = WriteOut { spans: Spans::new(traced), ..WriteOut::default() };
                    while Instant::now() < deadline {
                        one_txn(conn, g, Instant::now(), &mut out);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("load thread panicked"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Draws probes at random and checks each answer, until `stop` says so.
fn probe_loop(
    conn: &mut Connection,
    probes: &[Probe],
    rng: &mut StdRng,
    traced: bool,
    mut stop: impl FnMut(u64) -> bool,
) -> ProbeOut {
    let mut out = ProbeOut { spans: Spans::new(traced), ..ProbeOut::default() };
    while !stop(out.attempted) {
        let p = probes[rng.random_range(0..probes.len())];
        out.attempted += 1;
        let t0 = Instant::now();
        match out.spans.time("read_as_of", || conn.read_as_of(p.ob, p.lsn)) {
            Ok(got) => {
                out.lat_us.push(us(t0));
                if got != p.expect {
                    out.wrong += 1;
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

/// `history_restart`'s window: one closed-loop reader of time-travel
/// probes beside one open-loop writer committing [`WRITER_RATE`] txns/s.
fn history_window(
    reader: &mut Connection,
    writer: &mut Connection,
    gen: &mut PlanGen,
    probes: &[Probe],
    rng: &mut StdRng,
    secs: f64,
    traced: bool,
) -> (WriteOut, ProbeOut) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let (mut w, r) = std::thread::scope(|s| {
        let reader = s
            .spawn(move || probe_loop(reader, probes, rng, traced, |_| Instant::now() >= deadline));
        let mut out = WriteOut { spans: Spans::new(traced), ..WriteOut::default() };
        for i in 0u64.. {
            let due = start + Duration::from_secs_f64(i as f64 / WRITER_RATE);
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            out.late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            one_txn(writer, gen, due, &mut out);
        }
        (out, reader.join().expect("probe thread panicked"))
    });
    w.elapsed_s = start.elapsed().as_secs_f64();
    (w, r)
}

fn stats(conn: &mut Connection) -> Result<StatsDoc, String> {
    StatsDoc::parse(&client("stats", conn.stats_json())?)
}

/// Runs the configured workload once.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = Sizes::new(cfg.smoke);
    let wl = cfg.workload;
    let shards = wl.shards();
    let scratch = Scratch::create(&cfg.scratch_root, wl.name())?;
    scratch.settle()?;
    let mut out = Outcome {
        fsync_floor_us: layers::fsync_floor_us(&scratch.fresh_dir("fsync")?, 32)?,
        ..Outcome::default()
    };

    // Set-up, repeated at least `setup_reps` times and until the budget
    // is spent: the median is what a user waits to get a crashed image
    // of the workload's fixed size.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut image: Option<Image> = None;
    while setup_s.len() < sizes.setup_reps
        || (setup_s.iter().sum::<f64>() < sizes.setup_budget_s && setup_s.len() < SETUP_MAX_REPS)
    {
        let r = setup_s.len();
        if let Some(old) = image.take() {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let dir = scratch.fresh_dir(&format!("image-{r}"))?;
        let t0 = Instant::now();
        image = Some(match wl {
            Workload::HistoryRestart => history_image(dir, cfg, &sizes)?,
            _ => preload_image(dir, cfg, &sizes)?,
        });
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut image = image.expect("at least one set-up repetition");
    if cfg.corrupt_oracle {
        image.expect[0].1 += 1;
    }

    // Restart, repeated on fresh copies: spawn → first acked commit.
    let mut restart_ms = Vec::new();
    let mut server: Option<(ServeChild, PathBuf)> = None;
    for k in 0..sizes.restarts {
        let dir = scratch.path().join(format!("restart-{k}"));
        serve::copy_dir(&image.dir, &dir)?;
        if let Some((old, old_dir)) = server.take() {
            old.crash();
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let probe = ObjectId(range_base(5) + k);
        let (child, ms) = serve::restart_until_first_ack(&dir, shards, probe)?;
        restart_ms.push(ms);
        server = Some((child, dir));
    }
    let (server, _) = server.expect("at least one restart");
    scratch.settle()?;
    let mut ctl = server.connect()?;
    verify(&mut ctl, &image.expect, "after restart", &mut out);

    let mut conns =
        (0..wl.writers()).map(|_| server.connect()).collect::<Result<Vec<_>, String>>()?;
    let mut gens: Vec<PlanGen> = (0..wl.writers() as u64)
        .map(|t| PlanGen::new(cfg.seed, wl.mix(), 10 + t, 31 + t))
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0a50_f00d);
    let half = cfg.seconds / 2.0;
    let mut acked = Vec::new();
    let (write, probe, delta_w, delta_r, tps_untraced);
    if wl == Workload::HistoryRestart {
        let mut reader = server.connect()?;
        // The untraced first half of a traced run: its writes and probes
        // are checked like the traced half's.
        let (mut w0, mut p0) = (WriteOut::default(), ProbeOut::default());
        if cfg.trace {
            (w0, p0) = history_window(
                &mut reader,
                &mut conns[0],
                &mut gens[0],
                &image.probes,
                &mut rng,
                half,
                false,
            );
        }
        out.count(&w0);
        tps_untraced = w0.tps();
        acked.extend(w0.acked);
        let before = stats(&mut ctl)?;
        let secs = if cfg.trace { half } else { cfg.seconds };
        let (w, mut p) = history_window(
            &mut reader,
            &mut conns[0],
            &mut gens[0],
            &image.probes,
            &mut rng,
            secs,
            cfg.trace,
        );
        let after = stats(&mut ctl)?;
        p.absorb(p0);
        write = w;
        probe = p;
        delta_w = (before, after);
        delta_r = None;
    } else {
        let warm = closed_window(&mut conns, &mut gens, sizes.warmup.as_secs_f64(), false);
        out.count(&warm);
        acked.extend(warm.acked);
        if cfg.trace {
            let w0 = closed_window(&mut conns, &mut gens, half, false);
            out.count(&w0);
            tps_untraced = w0.tps();
            acked.extend(w0.acked);
        } else {
            tps_untraced = 0.0;
        }
        let before = stats(&mut ctl)?;
        let secs = if cfg.trace { half } else { cfg.seconds };
        write = closed_window(&mut conns, &mut gens, secs, cfg.trace);
        let after = stats(&mut ctl)?;
        delta_w = (before, after);
        // Time-travel probes at the preload's committed LSNs: a fixed
        // prefix of the log, whatever the window appended after it.
        let before_r = stats(&mut ctl)?;
        let n = sizes.asof_probes as u64;
        probe = probe_loop(&mut ctl, &image.probes, &mut rng, cfg.trace, |done| done >= n);
        delta_r = Some((before_r, stats(&mut ctl)?));
    }
    out.count(&write);
    acked.extend(write.acked.iter().copied());
    check_probes(&probe, &mut out);
    verify(&mut ctl, &acked, "acked effects", &mut out);
    let rss_mb = server.peak_rss_mb()?;
    drop(conns);
    drop(ctl);
    server.crash();

    let txn = Samples::new(write.lat_us.clone());
    let asof = Samples::new(probe.lat_us.clone());
    out.notes.push(txn.describe("txn", "us"));
    out.notes.push(asof.describe("asof", "us"));
    out.notes.push(format!(
        "setup_s samples {setup_s:?}; restart_ms samples {:?}",
        restart_ms.iter().map(|m| (m * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "commit_tps slices {:?}",
        write.slice_rates().iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.notes
        .push(format!("txn_failed_frac {}", ratio(write.failed as f64, write.attempted as f64)));

    if !cfg.trace {
        out.metric("commit_tps", median(&write.slice_rates()), "1/s");
        // The commit tail (printed in the notes) is not a gated metric:
        // device stalls and the flight recorder's black-box force on
        // every 32nd commit make it drift between runs far beyond any
        // usable bound.
        out.metric("txn_p50_us", sliced(&write.lat_us, 50.0), "us");
        out.metric("asof_p50_us", sliced(&probe.lat_us, 50.0), "us");
        out.metric("asof_p99_us", sliced(&probe.lat_us, 99.0), "us");
        out.metric("restart_ms", median(&restart_ms), "ms");
        out.metric("server_rss_mb", rss_mb, "MiB");
        out.metric("setup_s", median(&setup_s), "s");
        return Ok(out);
    }

    // Traced run: the per-layer view of the same workload and seed.
    let mut plan_gens: Vec<PlanGen> = (0..wl.writers() as u64)
        .map(|t| PlanGen::new(cfg.seed, wl.mix(), 10 + t, 31 + t))
        .collect();
    let plans: Vec<Plan> =
        (0..sizes.inproc_plans).map(|i| plan_gens[i % wl.writers()].next_plan()).collect();
    let inproc_probes: Vec<Probe> =
        image.probes.iter().take(sizes.inproc_probes).copied().collect();
    let work = scratch.fresh_dir("inproc")?;
    let mut ip = layers::in_process(&work, &image.dir, shards, &plans, &inproc_probes)?;
    if ip.divergences > 0 {
        out.diverged(format!("in-process read_as_of: {} answers diverged", ip.divergences));
    }
    layer_metrics(
        &mut out,
        LayerInputs {
            write,
            probe,
            ip: &mut ip,
            d: StatsDelta { before: &delta_w.0, after: &delta_w.1 },
            dr: delta_r.as_ref().map(|(b, a)| StatsDelta { before: b, after: a }),
            tps_untraced,
        },
    );
    Ok(out)
}

/// Inputs of the per-layer metrics.
struct LayerInputs<'a> {
    write: WriteOut,
    probe: ProbeOut,
    ip: &'a mut layers::InProcess,
    /// Server counters over the traced window.
    d: StatsDelta<'a>,
    /// Server counters over the separate probe phase, when there is one.
    dr: Option<StatsDelta<'a>>,
    tps_untraced: f64,
}

/// The `p`-th percentile of each of up to ten consecutive equal slices
/// of the samples, and the median of those: a stall confined to a few
/// slices cannot move the result. Each slice holds at least
/// [`SLICE_SAMPLES`] samples, and at least [`TAIL_SAMPLES`] beyond `p`.
fn sliced(samples: &[f64], p: f64) -> f64 {
    let least = SLICE_SAMPLES.max((TAIL_SAMPLES as f64 / (1.0 - p / 100.0)).ceil() as usize);
    let slices = (samples.len() / least).clamp(1, 10);
    let per = samples.chunks(samples.len().div_ceil(slices).max(1));
    median(&per.map(|c| Samples::new(c.to_vec()).pct(p)).collect::<Vec<_>>())
}

/// Least samples per slice, so each slice's percentile is well measured.
const SLICE_SAMPLES: usize = 100;

fn p50(samples: Vec<f64>) -> f64 {
    Samples::new(samples).pct(50.0)
}

fn layer_metrics(out: &mut Outcome, mut li: LayerInputs<'_>) {
    // Client time over the same window as the server histograms: the
    // probes count only when they ran beside the writes.
    let mut client_all = li.write.spans.all();
    if li.dr.is_none() {
        client_all.extend(li.probe.spans.all());
    }
    for op in ["begin", "write", "add", "delegate", "abort", "commit"] {
        let v = p50(li.write.spans.take(op));
        out.metric(&format!("client.rtt_us.{op}"), v, "us");
    }
    out.metric("client.rtt_us.read_as_of", p50(li.probe.spans.take("read_as_of")), "us");
    let txns = li.write.attempted as f64;
    out.metric("client.round_trips_per_txn", ratio(li.write.spans.calls() as f64, txns), "count");

    let d = &li.d;
    let request_mean = d.hist_mean("server.request_us");
    out.metric("server.queue_us.mean", d.hist_mean("server.queue_us"), "us");
    out.metric("server.request_us.mean", request_mean, "us");
    out.metric("server.unattributed_us", Samples::new(client_all).mean() - request_mean, "us");
    out.metric(
        "server.busy_frac",
        ratio(d.counter("server.replies.busy"), d.counter("server.requests")),
        "ratio",
    );

    let spans = &mut li.ip.spans;
    for op in ["begin", "write", "add", "delegate", "abort"] {
        out.metric(&format!("engine.op_us.{op}"), p50(spans.take(op)), "us");
    }
    out.metric("engine.commit_prepare_us", p50(spans.take("commit_prepare")), "us");
    out.metric("engine.twopc_commit_us", p50(spans.take("twopc_commit")), "us");
    let commits = d.counter("server.commits");
    out.metric("shard.twopc_frac", ratio(d.counter("shard.twopc.commits"), commits), "ratio");

    out.metric("wal.flush_to_us", p50(spans.take("flush_to")), "us");
    out.metric("wal.fsyncs_per_commit", ratio(d.counter("log.fsyncs"), commits), "count");
    out.metric("wal.bytes_per_commit", ratio(d.counter("log.bytes_flushed"), commits), "bytes");
    let floor = out.fsync_floor_us;
    out.metric("wal.fsync_floor_us", floor, "us");
    out.metric(
        "storage.page_writes_per_commit",
        ratio(d.counter("disk.page_writes"), commits),
        "count",
    );
    out.metric(
        "storage.page_reads_per_commit",
        ratio(d.counter("disk.page_reads"), commits),
        "count",
    );
    out.metric("lock.acquisitions_per_txn", ratio(d.counter("lock.acquisitions"), txns), "count");
    out.metric("lock.wait_us_per_txn", ratio(d.counter("lock.wait_micros"), txns), "us");

    out.metric("recovery.forward_ms", li.ip.forward_ms, "ms");
    out.metric("recovery.undo_ms", li.ip.undo_ms, "ms");
    out.metric("recovery.records_scanned", li.ip.records_scanned, "count");
    out.metric("recovery.undo_visited", li.ip.undo_visited, "count");
    out.metric("recovery.undone", li.ip.undone, "count");
    out.metric("recovery.clusters", li.ip.clusters, "count");

    out.metric("reenact.read_as_of_us", p50(li.ip.spans.take("read_as_of")), "us");
    let dr = li.dr.as_ref().unwrap_or(&li.d);
    out.metric(
        "reenact.records_per_query",
        ratio(dr.counter("reenact.records_scanned"), dr.counter("reenact.queries")),
        "count",
    );

    let tps_traced = li.write.tps();
    out.metric("loadgen.late_us_p99", Samples::new(li.write.late_us).pct(99.0), "us");
    out.metric("trace.overhead", ratio(tps_traced, li.tps_untraced), "ratio");
}

/// The scratch root used when none is given: inside the working
/// directory, which the benchmark is run from.
pub fn default_scratch_root() -> PathBuf {
    Path::new(".bench_scratch").to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes(answered: usize, wrong: u64, failed: u64) -> ProbeOut {
        ProbeOut {
            lat_us: vec![100.0; answered],
            attempted: answered as u64 + failed,
            failed,
            wrong,
            ..ProbeOut::default()
        }
    }

    #[test]
    fn answered_probes_that_match_pass() {
        let mut out = Outcome::default();
        check_probes(&probes(5, 0, 0), &mut out);
        assert!(out.correct(), "{:?}", out.divergences);
        assert_eq!((out.attempted, out.failed), (5, 0));
    }

    #[test]
    fn wrong_unanswered_or_missing_probes_fail_the_run() {
        for (p, what) in [
            (probes(5, 1, 0), "a wrong answer"),
            (probes(5, 0, 1), "an unanswered probe"),
            (probes(0, 0, 3), "no answers at all"),
            (probes(0, 0, 0), "no probes at all"),
        ] {
            let mut out = Outcome::default();
            check_probes(&p, &mut out);
            assert!(!out.correct(), "{what} went unnoticed");
            assert_eq!(out.failed, p.failed);
        }
    }
}
