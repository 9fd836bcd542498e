//! The runtime lock-witness (DESIGN.md §15): an opt-in, lockdep-style
//! dynamic analysis living inside the `parking_lot` shim, so every
//! production mutex/rwlock in the workspace can be observed without any
//! call-site changes.
//!
//! What it records, per *site* (a caller-supplied static name attached to
//! a lock at construction, e.g. `"core.engine"`):
//!
//! * **Held-lock stacks** — a thread-local stack of the sites this thread
//!   currently holds, maintained by guard drop.
//! * **The observed-edge graph** — an edge `A -> B` is recorded the first
//!   time any thread acquires site `B` while holding site `A`. Edges are
//!   checked *online, before blocking*: if adding `A -> B` would close a
//!   cycle, the acquiring thread panics with a two-site ABBA diagnosis
//!   instead of deadlocking the test run.
//! * **Hold-time histograms** — power-of-two microsecond buckets per
//!   site, plus named sub-histograms (e.g. `core.engine` /
//!   `commit_prepare`) fed by [`note_hold`] from instrumented code.
//!
//! Same-site nesting (the sharded router holds several shards' `engine`
//! mutexes at once) is exempt from the edge graph and instead governed by
//! *ranks*: locks created with [`ordered`](crate::Mutex::named_ordered)
//! carry an instance rank, and the witness asserts strictly-ascending
//! acquisition within the site. Rank-less same-site `Mutex` nesting
//! panics — on `std` mutexes that pattern is a self-deadlock bug, not a
//! style problem.
//!
//! Cost when off: [`enabled`] is a single relaxed atomic load (verified
//! by the `witness_off` row in `rh-bench --check-baselines`). The
//! witness is enabled by `RH_LOCK_WITNESS=1` in the environment or
//! [`set_enabled`] from test/bench code.
//!
//! Artifacts: with `RH_LOCK_WITNESS_DIR` set, every witnessing process
//! writes `lockwitness-<pid>-<t0>.json` there (`t0` = first-export
//! timestamp, so recycled pids never clobber an earlier binary's
//! artifact) — rewritten on each new edge
//! and every [`EXPORT_EVERY_RELEASES`] guard drops, so the artifact
//! survives processes that never reach a clean exit hook. Sites whose
//! name starts with `fixture.` are deliberate test rigs (the ABBA test
//! below) and are excluded from exports so a full test-suite run under
//! the witness stays unifiable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex as StdMutex;
use std::sync::PoisonError;
use std::time::Instant;

/// Rewrites the `RH_LOCK_WITNESS_DIR` artifact every this-many releases
/// (in addition to on every new edge).
pub const EXPORT_EVERY_RELEASES: u64 = 512;

/// Site-name prefix marking deliberate test rigs, excluded from exports.
pub const FIXTURE_PREFIX: &str = "fixture.";

/// Number of power-of-two microsecond buckets in a hold histogram
/// (bucket `i` counts holds in `[2^(i-1), 2^i)` µs; bucket 0 is `< 1µs`).
pub const HOLD_BUCKETS: usize = 40;

// Tri-state so the fast path is one relaxed load: 0 = uninitialized
// (consult the environment once), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// True when the witness is recording. One relaxed atomic load on the
/// steady path; the first call per process reads `RH_LOCK_WITNESS`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == 2,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("RH_LOCK_WITNESS").is_ok_and(|v| v == "1" || v == "true");
    // A racing `set_enabled` wins: only replace the uninitialized state.
    let _ = STATE.compare_exchange(0, if on { 2 } else { 1 }, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == 2
}

/// Turns the witness on or off programmatically (tests, benches). The
/// environment is consulted only while the state is untouched.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Power-of-two histogram of hold times, microseconds.
#[derive(Debug, Clone)]
pub struct HoldHistogram {
    /// Bucket counts; bucket `i` covers `[2^(i-1), 2^i)` µs.
    pub buckets: [u64; HOLD_BUCKETS],
    /// Observations.
    pub count: u64,
    /// Sum of observed microseconds.
    pub total_us: u64,
    /// Largest observed hold, microseconds.
    pub max_us: u64,
}

impl Default for HoldHistogram {
    fn default() -> Self {
        HoldHistogram { buckets: [0; HOLD_BUCKETS], count: 0, total_us: 0, max_us: 0 }
    }
}

impl HoldHistogram {
    fn observe(&mut self, us: u64) {
        let idx = (64 - u64::leading_zeros(us.max(1)) as usize).min(HOLD_BUCKETS - 1);
        let idx = if us == 0 { 0 } else { idx };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    fn merge_count_into_json(&self) -> String {
        let mut parts = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                parts.push(format!("\"{i}\": {b}"));
            }
        }
        format!(
            "{{\"count\": {}, \"total_us\": {}, \"max_us\": {}, \"buckets\": {{{}}}}}",
            self.count,
            self.total_us,
            self.max_us,
            parts.join(", ")
        )
    }
}

struct SiteStats {
    name: &'static str,
    acquires: u64,
    hold: HoldHistogram,
    /// Named sub-histograms attributed by instrumented code while the
    /// site was held (e.g. `commit_prepare` under `core.engine`).
    subs: Vec<(&'static str, HoldHistogram)>,
}

struct EdgeStats {
    count: u64,
    /// Thread name of the first observation, for the diagnosis.
    first_thread: String,
}

#[derive(Default)]
struct Reg {
    sites: Vec<SiteStats>,
    by_name: HashMap<&'static str, u32>,
    /// Observed nesting edges `(holder site, acquired site)`.
    edges: HashMap<(u32, u32), EdgeStats>,
    /// Human-readable diagnoses of detected cycles (also panicked).
    cycles: Vec<String>,
    releases: u64,
    export_failures: u64,
}

static REG: StdMutex<Option<Reg>> = StdMutex::new(None);

fn with_reg<R>(f: impl FnOnce(&mut Reg) -> R) -> R {
    let mut guard = REG.lock().unwrap_or_else(PoisonError::into_inner);
    f(guard.get_or_insert_with(Reg::default))
}

/// Interns a site name, returning its dense id. Idempotent.
pub fn intern(name: &'static str) -> u32 {
    with_reg(|reg| {
        if let Some(&id) = reg.by_name.get(name) {
            return id;
        }
        let id = reg.sites.len() as u32;
        reg.sites.push(SiteStats {
            name,
            acquires: 0,
            hold: HoldHistogram::default(),
            subs: Vec::new(),
        });
        reg.by_name.insert(name, id);
        id
    })
}

/// One entry in a thread's held-lock stack.
struct HeldEntry {
    site: u32,
    rank: Option<u32>,
    token: u64,
    since: Instant,
}

thread_local! {
    static HELD: std::cell::RefCell<Vec<HeldEntry>> = const { std::cell::RefCell::new(Vec::new()) };
    // Edges this thread has already pushed to the global graph, packed
    // as `(from << 32) | to` — the steady-state acquisition path never
    // touches the global registry. A linear scan beats a hash set here:
    // a thread sees tens of distinct edges, and the packed u64 compare
    // is cheaper than one SipHash pass over the key.
    static SEEN: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lock flavors, for the same-site nesting policy.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Exclusive mutex: rank-less same-site nesting is a self-deadlock
    /// bug and panics.
    Mutex,
    /// Shared side of an rwlock: same-site read nesting is tolerated.
    Read,
    /// Exclusive side of an rwlock: treated like a mutex.
    Write,
}

/// Pre-blocking check: validates the prospective acquisition of `site`
/// against this thread's held stack, records new edges, and panics with
/// an ABBA diagnosis if the edge would close a cycle. Call *before* the
/// underlying lock operation so a would-be deadlock fails loudly instead
/// of hanging.
pub fn pre_acquire(site: u32, rank: Option<u32>, kind: LockKind) {
    // Iterated in place under both thread-local borrows (no allocation
    // on the hot path): `record_edge`/`same_site_check` touch only the
    // global registry, never `HELD` or `SEEN`, so neither borrow can
    // re-enter.
    HELD.with(|h| {
        let held = h.borrow();
        if held.is_empty() {
            return;
        }
        SEEN.with(|s| {
            let mut seen = s.borrow_mut();
            for e in held.iter() {
                if e.site == site {
                    same_site_check(site, e.rank, rank, kind);
                    continue;
                }
                let key = ((e.site as u64) << 32) | site as u64;
                if seen.contains(&key) {
                    continue;
                }
                record_edge((e.site, site));
                seen.push(key);
            }
        });
    });
}

/// Same-site nesting policy: ordered sites must ascend strictly by rank;
/// rank-less exclusive nesting is a self-deadlock bug.
fn same_site_check(site: u32, held_rank: Option<u32>, new_rank: Option<u32>, kind: LockKind) {
    match (held_rank, new_rank) {
        (Some(h), Some(n)) if n > h => {}
        (Some(h), Some(n)) => {
            let name = site_name(site);
            panic!(
                "rh lock-witness: same-site rank order violation on `{name}`: \
                 acquiring rank {n} while holding rank {h} (ranks must strictly ascend; \
                 see the ordered-acquisition protocol in DESIGN.md §15)"
            );
        }
        _ if kind == LockKind::Read => {}
        _ => {
            let name = site_name(site);
            panic!(
                "rh lock-witness: same-site nesting on `{name}` without instance ranks: \
                 on std mutexes this is a self-deadlock; use Mutex::named_ordered for \
                 deliberate multi-instance acquisition"
            );
        }
    }
}

fn site_name(site: u32) -> &'static str {
    with_reg(|reg| reg.sites.get(site as usize).map_or("?", |s| s.name))
}

/// Records a new edge in the global graph; detects cycles by DFS from
/// the target back to the source. On a cycle: records the diagnosis and
/// panics (outside the registry lock, so the registry is not poisoned
/// mid-update).
fn record_edge(edge: (u32, u32)) {
    let thread = std::thread::current().name().unwrap_or("?").to_string();
    let diagnosis = with_reg(|reg| {
        if let Some(e) = reg.edges.get_mut(&edge) {
            e.count += 1;
            return None;
        }
        // Cycle check before inserting: can `edge.1` already reach
        // `edge.0`?
        let path = reach(&reg.edges, edge.1, edge.0);
        if let Some(path) = path {
            let names: Vec<&str> =
                path.iter().map(|&s| reg.sites.get(s as usize).map_or("?", |x| x.name)).collect();
            let from = reg.sites.get(edge.0 as usize).map_or("?", |x| x.name);
            let to = reg.sites.get(edge.1 as usize).map_or("?", |x| x.name);
            let back = reg
                .edges
                .get(&(path[0], path[1]))
                .map_or("?".to_string(), |e| e.first_thread.clone());
            let msg = format!(
                "rh lock-witness: ABBA deadlock: acquiring `{to}` while holding `{from}` \
                 closes the cycle [{from} -> {}]: reverse edge first observed on thread \
                 `{back}`, this acquisition on thread `{thread}`",
                names.join(" -> "),
            );
            reg.cycles.push(msg.clone());
            return Some(msg);
        }
        reg.edges.insert(edge, EdgeStats { count: 1, first_thread: thread.clone() });
        None
    });
    if let Some(msg) = diagnosis {
        export_if_configured();
        panic!("{msg}");
    }
    export_if_configured();
}

/// DFS: a path from `from` to `to` through the edge graph, if any.
fn reach(edges: &HashMap<(u32, u32), EdgeStats>, from: u32, to: u32) -> Option<Vec<u32>> {
    let mut stack = vec![vec![from]];
    let mut visited = std::collections::HashSet::new();
    visited.insert(from);
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("non-empty path");
        if last == to {
            return Some(path);
        }
        for &(a, b) in edges.keys() {
            if a == last && visited.insert(b) {
                let mut next = path.clone();
                next.push(b);
                stack.push(next);
            }
        }
    }
    None
}

/// Post-acquisition bookkeeping: pushes the site onto the thread's held
/// stack and returns the token that pops it (and records hold time) on
/// guard drop.
pub fn post_acquire(site: u32, rank: Option<u32>) -> HoldToken {
    let token = NEXT_TOKEN.with(|t| {
        let v = t.get();
        t.set(v + 1);
        v
    });
    // The acquisition is counted on guard drop, in the same registry
    // visit that records the hold time — one global-mutex crossing per
    // lock operation instead of two.
    HELD.with(|h| h.borrow_mut().push(HeldEntry { site, rank, token, since: Instant::now() }));
    HoldToken { site, token }
}

/// Open hold: dropping it pops the thread's held stack and records the
/// hold time into the site's histogram.
#[derive(Debug)]
pub struct HoldToken {
    site: u32,
    token: u64,
}

impl Drop for HoldToken {
    fn drop(&mut self) {
        let us = HELD
            .try_with(|h| {
                let mut held = h.borrow_mut();
                let idx = held.iter().rposition(|e| e.token == self.token)?;
                let entry = held.remove(idx);
                Some(entry.since.elapsed().as_micros() as u64)
            })
            .ok()
            .flatten();
        let Some(us) = us else { return };
        let export = with_reg(|reg| {
            if let Some(s) = reg.sites.get_mut(self.site as usize) {
                s.acquires += 1;
                s.hold.observe(us);
            }
            reg.releases += 1;
            reg.releases % EXPORT_EVERY_RELEASES == 0
        });
        if export {
            export_if_configured();
        }
    }
}

/// Attributes `us` microseconds to the named sub-histogram of `site` —
/// instrumented code calls this to break a long hold into phases (the
/// router commit path reports its `commit_prepare` slice of the
/// `core.engine` hold this way). No-op when the witness is off.
pub fn note_hold(site: &'static str, sub: &'static str, us: u64) {
    if !enabled() {
        return;
    }
    let id = intern(site);
    with_reg(|reg| {
        let Some(s) = reg.sites.get_mut(id as usize) else { return };
        if let Some((_, h)) = s.subs.iter_mut().find(|(n, _)| *n == sub) {
            h.observe(us);
        } else {
            let mut h = HoldHistogram::default();
            h.observe(us);
            s.subs.push((sub, h));
        }
    });
}

// ---- snapshots and export ----------------------------------------------

/// Per-site view of the witness state.
#[derive(Debug, Clone)]
pub struct SiteSnapshot {
    /// The site name given at construction.
    pub name: &'static str,
    /// Acquisitions witnessed (counted at guard release, so a hold
    /// still open at snapshot time is not yet included).
    pub acquires: u64,
    /// Hold-time histogram.
    pub hold: HoldHistogram,
    /// Named sub-histograms recorded by [`note_hold`].
    pub subs: Vec<(&'static str, HoldHistogram)>,
}

/// One observed nesting edge.
#[derive(Debug, Clone)]
pub struct EdgeSnapshot {
    /// Holder site name.
    pub from: &'static str,
    /// Acquired site name.
    pub to: &'static str,
    /// Observations (first sightings per thread, not every acquisition).
    pub count: u64,
    /// Thread that first observed the edge.
    pub first_thread: String,
}

/// Everything the witness knows, as plain data (no `rh-obs` dependency —
/// this crate sits below the observability layer; `rh-core` bridges the
/// aggregates into the metrics registry).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-site stats, in interning order.
    pub sites: Vec<SiteSnapshot>,
    /// Observed edges.
    pub edges: Vec<EdgeSnapshot>,
    /// Diagnosed cycles (each also panicked the offending thread).
    pub cycles: Vec<String>,
    /// Guard releases witnessed.
    pub releases: u64,
}

impl Snapshot {
    /// Total acquisitions across all sites.
    pub fn acquires(&self) -> u64 {
        self.sites.iter().map(|s| s.acquires).sum()
    }
}

/// Snapshots the witness state, including `fixture.*` sites.
pub fn snapshot() -> Snapshot {
    with_reg(|reg| Snapshot {
        sites: reg
            .sites
            .iter()
            .map(|s| SiteSnapshot {
                name: s.name,
                acquires: s.acquires,
                hold: s.hold.clone(),
                subs: s.subs.clone(),
            })
            .collect(),
        edges: reg
            .edges
            .iter()
            .map(|(&(a, b), e)| EdgeSnapshot {
                from: reg.sites.get(a as usize).map_or("?", |s| s.name),
                to: reg.sites.get(b as usize).map_or("?", |s| s.name),
                count: e.count,
                first_thread: e.first_thread.clone(),
            })
            .collect(),
        cycles: reg.cycles.clone(),
        releases: reg.releases,
    })
}

/// Renders the snapshot as the `lockwitness.json` artifact body
/// (hand-rolled JSON in the workspace dialect; `fixture.*` sites and
/// edges touching them are excluded, as are the cycles they diagnose).
pub fn render_json() -> String {
    let snap = snapshot();
    let mut sites = Vec::new();
    for s in &snap.sites {
        if s.name.starts_with(FIXTURE_PREFIX) {
            continue;
        }
        let subs: Vec<String> =
            s.subs.iter().map(|(n, h)| format!("\"{n}\": {}", h.merge_count_into_json())).collect();
        sites.push(format!(
            "    {{\"site\": \"{}\", \"acquires\": {}, \"hold\": {}, \"subs\": {{{}}}}}",
            s.name,
            s.acquires,
            s.hold.merge_count_into_json(),
            subs.join(", ")
        ));
    }
    let mut edges = Vec::new();
    for e in &snap.edges {
        if e.from.starts_with(FIXTURE_PREFIX) || e.to.starts_with(FIXTURE_PREFIX) {
            continue;
        }
        edges.push(format!(
            "    {{\"from\": \"{}\", \"to\": \"{}\", \"count\": {}, \"first_thread\": \"{}\"}}",
            e.from,
            e.to,
            e.count,
            e.first_thread.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    let cycles: Vec<String> = snap
        .cycles
        .iter()
        .filter(|c| !c.contains("`fixture."))
        .map(|c| format!("    \"{}\"", c.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!(
        "{{\n  \"schema\": \"lockwitness.v1\",\n  \"pid\": {},\n  \"releases\": {},\n  \
         \"sites\": [\n{}\n  ],\n  \"edges\": [\n{}\n  ],\n  \"cycles\": [\n{}\n  ]\n}}\n",
        std::process::id(),
        snap.releases,
        sites.join(",\n"),
        edges.join(",\n"),
        cycles.join(",\n"),
    )
}

/// Writes the artifact to `path` (write-temp + rename, so readers never
/// see a torn file).
pub fn export_to(path: &std::path::Path) -> std::io::Result<()> {
    let body = render_json();
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Best-effort export to
/// `RH_LOCK_WITNESS_DIR/lockwitness-<pid>-<t0>.json` when that variable
/// is set; failures are counted, never surfaced (the witness must not
/// take down the code it observes). The filename carries the process's
/// first-export timestamp alongside the pid: a long test run recycles
/// pids across sequential binaries, and a bare `lockwitness-<pid>.json`
/// would silently overwrite an earlier binary's artifact.
pub fn export_if_configured() {
    static FILENAME: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let Ok(dir) = std::env::var("RH_LOCK_WITNESS_DIR") else { return };
    let dir = std::path::PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&dir);
    let name = FILENAME.get_or_init(|| {
        let t0 = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        format!("lockwitness-{}-{}.json", std::process::id(), t0)
    });
    if export_to(&dir.join(name)).is_err() {
        with_reg(|reg| reg.export_failures += 1);
    }
}
