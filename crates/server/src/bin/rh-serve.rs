//! `rh-serve` — run the ARIES/RH engine as a network server.
//!
//! ```text
//! rh-serve --dir target/obs/db --addr 127.0.0.1:7411 \
//!          [--shards N] [--introspect 127.0.0.1:7412] \
//!          [--max-sessions N] [--inflight N] [--idle-ms N]
//! ```
//!
//! Serves an N-shard database (`--shards`, default 1): requests route
//! by object id, and cross-shard transactions commit through two-phase
//! commit. Each shard keeps its own file-backed WAL segment directory,
//! whose log also carries the shard's flight-recorder black boxes:
//! `--dir` itself for one shard, `--dir/shard-K/` for shard K of
//! several. `rh-postmortem <dir>` renders a shard's boxes.
//!
//! An all-empty set of logs is a fresh database. Otherwise a log with
//! a NULL master record is the crash-restart case: every shard runs
//! restart recovery in parallel, in-doubt 2PC transactions resolve
//! against the coordinator records, and the server prints the reports
//! — with the log-open time and each shard's restart phases — so a
//! kill-9'd predecessor's acknowledged commits are back before the
//! first connection is accepted. A non-NULL master means the directory
//! was closed by a *graceful* drain-and-checkpoint; its page state lives
//! in the drained process's disk image, which files alone cannot
//! rebuild — the server refuses such a directory rather than serve
//! wrong data.
//!
//! The process exits on a wire `Shutdown` op (graceful drain +
//! checkpoint). Kill it with a signal to exercise the crash path
//! instead.
//!
//! **Replication.** With `--replica-of HOST:PORT` the process runs as a
//! read replica: it subscribes to the primary's per-shard WAL streams
//! (resuming from its own durable prefix after a bounce), serves
//! read-only sessions on `--addr`, and exposes `/replication` on the
//! introspection address. Add `--promote` and a primary that stays
//! unreachable past the reconnect budget triggers failover: the replica
//! finishes its forward pass, runs the backward pass over loser
//! clusters, resolves in-doubt 2PC, and re-binds `--addr` as a writable
//! primary. Primaries always accept `ReplSubscribe`, so any server
//! started by this binary can feed replicas.

use rh_core::engine::{DbConfig, Strategy};
use rh_core::replica::ReplicaSet;
use rh_core::sharded::{ShardMap, ShardedDb};
use rh_obs::Stopwatch;
use rh_server::{ReplRegistry, ReplicaRunner, RunnerConfig, Server, ServerConfig};
use rh_storage::Disk;
use rh_wal::StableLog;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    dir: String,
    addr: String,
    introspect: Option<String>,
    shards: usize,
    replica_of: Option<String>,
    promote: bool,
    cfg: ServerConfig,
}

fn usage(reason: &str) -> ! {
    eprintln!("rh-serve: {reason}");
    eprintln!(
        "usage: rh-serve --dir PATH [--addr HOST:PORT] [--shards N] \
         [--introspect HOST:PORT] [--max-sessions N] \
         [--inflight N] [--idle-ms N] [--replica-of HOST:PORT [--promote]]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        dir: String::new(),
        addr: "127.0.0.1:7411".to_string(),
        introspect: None,
        shards: 1,
        replica_of: None,
        promote: false,
        cfg: ServerConfig::default(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| match argv.next() {
            Some(v) => v,
            None => usage(&format!("{name} needs a value")),
        };
        match flag.as_str() {
            "--dir" => out.dir = value("--dir"),
            "--addr" => out.addr = value("--addr"),
            "--introspect" => out.introspect = Some(value("--introspect")),
            "--shards" => match value("--shards").parse() {
                Ok(n) if n >= 1 => out.shards = n,
                _ => usage("--shards needs an integer >= 1"),
            },
            "--max-sessions" => match value("--max-sessions").parse() {
                Ok(n) => out.cfg.max_sessions = n,
                Err(_) => usage("--max-sessions needs an integer"),
            },
            "--inflight" => match value("--inflight").parse() {
                Ok(n) => out.cfg.inflight_per_conn = n,
                Err(_) => usage("--inflight needs an integer"),
            },
            "--idle-ms" => match value("--idle-ms").parse() {
                Ok(n) => out.cfg.idle_timeout = Duration::from_millis(n),
                Err(_) => usage("--idle-ms needs an integer"),
            },
            "--replica-of" => out.replica_of = Some(value("--replica-of")),
            "--promote" => out.promote = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if out.dir.is_empty() {
        usage("--dir is required");
    }
    if out.promote && out.replica_of.is_none() {
        usage("--promote only makes sense with --replica-of");
    }
    out
}

/// `"1 shard"`, `"4 shards"`.
fn shard_count(n: usize) -> String {
    format!("{n} shard{}", if n == 1 { "" } else { "s" })
}

/// Opens every shard's WAL directory — `--dir` itself for one shard,
/// `--dir/shard-K` otherwise, for primaries and replicas alike, so a
/// promoted replica's directory is indistinguishable from a primary's.
/// Any shard closed by a graceful drain refuses the whole directory.
fn open_stables(args: &Args) -> Result<Vec<Arc<StableLog>>, String> {
    let mut stables = Vec::with_capacity(args.shards);
    for k in 0..args.shards {
        let dir =
            if args.shards == 1 { args.dir.clone() } else { format!("{}/shard-{k}", args.dir) };
        let stable = StableLog::open_dir(&dir).map_err(|e| format!("open {dir}: {e}"))?;
        let master = stable.master();
        if !master.is_null() {
            return Err(format!(
                "{dir} was closed by a graceful drain (checkpoint taken at {master}); its page \
                 state lives in the drained process's disk image and cannot be rebuilt from the \
                 log alone. Serve a fresh --dir, or restart only after crashes."
            ));
        }
        stables.push(stable);
    }
    Ok(stables)
}

/// Opens (or creates / crash-recovers) the database: all-empty logs are
/// a fresh database; anything else is a crash-restart, recovered
/// shard-parallel with in-doubt 2PC resolution.
fn open_primary(args: &Args) -> Result<ShardedDb, String> {
    let opened = Stopwatch::start();
    let stables = open_stables(args)?;
    let open_ms = ms(opened.elapsed());
    let shards = shard_count(args.shards);
    if stables.iter().all(|s| s.is_empty()) {
        println!("rh-serve: fresh database in {} ({shards})", args.dir);
        return ShardedDb::with_stable_logs(
            Strategy::Rh,
            DbConfig::default(),
            stables,
            ShardMap::RANGE_SHIFT,
        )
        .map_err(|e| format!("open: {e}"));
    }
    let records: usize = stables.iter().map(|s| s.len()).sum();
    println!(
        "rh-serve: crash-restart of {} ({shards}, {records} stable records, log open {open_ms:.3}ms)",
        args.dir
    );
    let parts = stables.into_iter().map(|s| (s, Disk::new())).collect();
    let db = ShardedDb::recover(Strategy::Rh, DbConfig::default(), parts, ShardMap::RANGE_SHIFT)
        .map_err(|e| format!("recovery failed: {e}"))?;
    for k in 0..db.shard_count() {
        if let Some(report) = db.shard_recovery(k) {
            println!(
                "rh-serve: shard {k} recovery: losers={:?} indoubt={:?} coord-commits={} \
                 records={} reads={} forward={:.3}ms backward={:.3}ms open={:.3}ms force={:.3}ms",
                report.losers,
                report.indoubt,
                report.coord_commits.len(),
                report.forward.records_scanned,
                report.forward.stable_reads,
                ms(report.forward_wall),
                ms(report.undo_wall),
                ms(report.open_wall),
                ms(report.force_wall),
            );
        }
    }
    let stats = db.stats();
    println!(
        "rh-serve: in-doubt resolution: resolved={} committed={}",
        stats.counter("shard.indoubt.resolved"),
        stats.counter("shard.indoubt.committed"),
    );
    Ok(db)
}

/// A wall-clock phase in milliseconds.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn die(reason: &str) -> ! {
    eprintln!("rh-serve: {reason}");
    std::process::exit(1);
}

/// The `/replication` route, mounted on every configuration's
/// introspection endpoint: the registry the server's ship loops (on a
/// primary) or the subscriber runner (on a replica) report into.
fn repl_route(repl: &Arc<ReplRegistry>) -> rh_obs::Handler {
    let repl = Arc::clone(repl);
    Arc::new(move |path: &str| match path {
        "/replication" => Some(rh_obs::HttpResponse::Json(repl.to_json())),
        _ => None,
    })
}

/// Serves `db` as the writable primary until a wire `Shutdown` op,
/// then drains. `role` names the bind in the ready line ("listening",
/// or "promoted to primary" after a failover).
fn serve_primary(args: &Args, db: ShardedDb, repl: Arc<ReplRegistry>, role: &str) {
    if let Some(iaddr) = &args.introspect {
        match db.serve_introspection_with(iaddr, &["/replication"], Some(repl_route(&repl))) {
            Ok(bound) => println!("rh-serve: introspection on http://{bound}"),
            Err(e) => die(&format!("cannot bind introspection {iaddr}: {e}")),
        }
    }
    let shards = shard_count(db.shard_count());
    let server = match Server::bind_with_repl(&args.addr, db, args.cfg.clone(), repl) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot bind {}: {e}", args.addr)),
    };
    println!("rh-serve: {role} on {} ({shards})", server.local_addr());
    server.run_until_shutdown();
    println!("rh-serve: shutdown requested, draining");
    let stats = match server.shutdown() {
        Ok(db) => db.stats(),
        Err(e) => die(&format!("drain failed: {e}")),
    };
    println!(
        "rh-serve: drained. commits={} sessions={} fsyncs={}",
        stats.counter("server.commits"),
        stats.counter("server.sessions.opened"),
        stats.counter("log.fsyncs"),
    );
}

// ---- replica mode ------------------------------------------------------

/// How many consecutive dead dials (at [`RunnerConfig::reconnect_backoff`]
/// apart, each bounded by the heartbeat grace) declare the primary lost
/// when `--promote` is armed.
const PROMOTE_AFTER_FAILURES: u32 = 10;

/// How often the replica main loop interleaves its two wake conditions:
/// a wire `Shutdown` op and the runner's source-lost flag.
const FAILOVER_POLL: Duration = Duration::from_millis(200);

fn run_replica(args: &Args, source: &str) {
    let stables = match open_stables(args) {
        Ok(s) => s,
        Err(reason) => die(&reason),
    };
    let resumed: u64 = stables.iter().map(|s| s.len() as u64).sum();
    let parts = stables.into_iter().map(|s| (s, Disk::new())).collect();
    let set =
        match ReplicaSet::open(Strategy::Rh, DbConfig::default(), parts, ShardMap::RANGE_SHIFT) {
            Ok(set) => Arc::new(set),
            Err(e) => die(&format!("replica open failed: {e}")),
        };
    if resumed > 0 {
        println!("rh-serve: replica resumes from {resumed} local records");
    }
    let repl = Arc::new(ReplRegistry::new());
    // A replica has no engine to host introspection; serve the routes
    // standalone (the promoted incarnation swaps to engine-hosted).
    let mut intro = None;
    if let Some(iaddr) = &args.introspect {
        let stats_set = Arc::clone(&set);
        let route = repl_route(&repl);
        let handler: rh_obs::Handler = Arc::new(move |path: &str| match path {
            "/replication" => route(path),
            "/stats" => Some(rh_obs::HttpResponse::Json(stats_set.stats().to_json())),
            "/metrics" => Some(rh_obs::HttpResponse::Text {
                content_type: rh_obs::serve::PROMETHEUS_CONTENT_TYPE,
                body: rh_obs::promtext::render(&stats_set.stats()),
            }),
            _ => None,
        });
        match rh_obs::IntrospectionServer::bind(
            iaddr,
            &["/replication", "/stats", "/metrics"],
            handler,
        ) {
            Ok(server) => {
                println!("rh-serve: introspection on http://{}", server.local_addr());
                intro = Some(server);
            }
            Err(e) => die(&format!("cannot bind introspection {iaddr}: {e}")),
        }
    }
    let runner_cfg = RunnerConfig {
        max_reconnect_failures: args.promote.then_some(PROMOTE_AFTER_FAILURES),
        ..RunnerConfig::default()
    };
    let runner =
        ReplicaRunner::start(Arc::clone(&set), Arc::clone(&repl), source.to_string(), runner_cfg);
    let server = match Server::bind_replica(
        &args.addr,
        Arc::clone(&set),
        args.cfg.clone(),
        Arc::clone(&repl),
    ) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot bind {}: {e}", args.addr)),
    };
    println!("rh-serve: replica of {source}, read-only on {}", server.local_addr());
    loop {
        if server.wait_shutdown_for(FAILOVER_POLL) {
            println!("rh-serve: shutdown requested, stopping replica");
            runner.stop();
            match server.shutdown_replica() {
                Ok(_) => println!("rh-serve: replica stopped"),
                Err(e) => die(&format!("replica drain failed: {e}")),
            }
            return;
        }
        if runner.source_lost() {
            println!("rh-serve: primary {source} lost, promoting");
            break;
        }
    }
    runner.stop();
    drop(intro); // free the introspection addr for the promoted server
    let promoted = match set.promote() {
        Ok(db) => db,
        Err(e) => die(&format!("promotion failed: {e}")),
    };
    if let Err(e) = server.shutdown_replica() {
        die(&format!("replica drain failed: {e}"));
    }
    serve_primary(args, promoted, repl, "promoted to primary");
}

fn main() {
    let args = parse_args();
    if let Some(source) = args.replica_of.clone() {
        run_replica(&args, &source);
        return;
    }
    match open_primary(&args) {
        Ok(db) => serve_primary(&args, db, Arc::new(ReplRegistry::new()), "listening"),
        Err(reason) => die(&reason),
    }
}
