//! Interprocedural call-graph extraction over the lexer's token stream.
//!
//! This is the front half of the lock-graph subsystem (DESIGN.md §15):
//! every workspace `fn` becomes a [`FnDef`] whose body is reduced to an
//! ordered list of [`Event`]s — lock acquisitions (with the set of
//! guards lexically held at that point, using L2's guard-lifetime
//! rules) and call sites (with the same held set, plus enough receiver
//! context to resolve the callee). The back half
//! ([`crate::lockgraph`]) resolves calls across crate boundaries,
//! closes the may-acquire relation, and assembles the global
//! lock-acquisition graph.
//!
//! Everything here is a documented approximation over flat tokens (no
//! type information). The witness side of the analyzer
//! (`parking_lot::witness`) exists precisely to catch what this pass
//! gets wrong: any dynamic edge the static pass failed to predict
//! fails the `--lock-graph` gate.

use crate::lexer::{in_spans, Kind, Token};
use crate::rules::SourceFile;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;

/// Methods whose *empty-argument* call is a lock acquisition
/// (mirrors L2's convention).
pub const ACQUIRERS: &[&str] = &["lock", "read", "write"];

/// Sink classes for the held-across lints (L6/L7/L8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SinkClass {
    /// Durability syncs: `sync_all`, `sync_data`, `fsync`, `flush`.
    Fsync,
    /// Socket sends: `write_all`, `send`, `send_to`.
    Send,
    /// Scheduler waits: `sleep`, `park`, `park_timeout`, `yield_now`.
    Sleep,
}

impl SinkClass {
    /// The lint rule id this sink class reports under.
    pub fn rule(self) -> &'static str {
        match self {
            SinkClass::Fsync => "L6",
            SinkClass::Send => "L7",
            SinkClass::Sleep => "L8",
        }
    }

    /// Human description used in finding messages.
    pub fn describe(self) -> &'static str {
        match self {
            SinkClass::Fsync => "fsync/flush",
            SinkClass::Send => "send on a socket",
            SinkClass::Sleep => "sleep/park",
        }
    }

    fn of(name: &str) -> Option<SinkClass> {
        match name {
            "sync_all" | "sync_data" | "fsync" | "sync_dir" | "flush" => Some(SinkClass::Fsync),
            "write_all" | "send" | "send_to" => Some(SinkClass::Send),
            "sleep" | "park" | "park_timeout" | "yield_now" => Some(SinkClass::Sleep),
            _ => None,
        }
    }
}

/// How a method call's receiver was written — drives callee resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receiver {
    /// `self.f(..)` — the callee is (almost always) in the caller's own
    /// impl, so same-file definitions are preferred.
    SelfRecv,
    /// The receiver is a lock-guard binding or a closure parameter —
    /// a *foreign* object handed in (`eng.read(..)` inside
    /// `on_shard(.., |eng| ..)`), so same-file definitions are
    /// excluded: the router's identically-named wrapper is exactly the
    /// wrong target.
    Foreign,
    /// An identifier receiver without special shape, or a free-function
    /// call.
    Plain,
    /// A method call on a non-identifier expression
    /// (`options().open(path)`, `iter().collect()`): the receiver is
    /// unknowable lexically, so the call resolves only when the name is
    /// workspace-unique — anything ambiguous is std-library noise.
    Expr,
}

/// One body event, with the guard sites lexically held at that point.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// 1-based source line.
    pub line: u32,
    /// Sites held (deduped, sorted) when the event fires.
    pub held: Vec<String>,
}

/// The event payload.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A lock acquisition producing the given site id
    /// (`<crate>.<receiver>`).
    Acquire {
        /// Site id acquired.
        site: String,
    },
    /// A call site.
    Call {
        /// Bare callee name.
        name: String,
        /// Receiver shape, for resolution.
        recv: Receiver,
        /// True for `x.name(..)` method syntax (drives the
        /// opaque-method filter and the closure-invocation heuristic).
        method: bool,
        /// Receiver type hints: uppercase idents from the receiver's
        /// declared type (`file: Arc<dyn WalFile>` → `[Arc, WalFile]`),
        /// from the lock field behind a guard binder, or the qualifier
        /// of a `Type::name(..)` path call. Empty when unknown — the
        /// resolver falls back to name tiers.
        recv_types: Vec<String>,
        /// Index (into the owning fn's `events`) of the innermost call
        /// whose argument list this call appears inside — the
        /// higher-order dispatch case.
        enclosing: Option<usize>,
        /// Sink class if the name is a known sink (only judged a sink
        /// when resolution finds no workspace definition).
        sink: Option<SinkClass>,
        /// `held` minus the sink receiver's own guard — the exclusion
        /// only applies to [`SinkClass::Send`] (the `out` mutex *is*
        /// the socket guard); fsync and sleep sinks use `held` as-is.
        sink_held: Vec<String>,
    },
}

/// One function definition with its extracted events.
#[derive(Debug)]
pub struct FnDef {
    /// Crate directory name (`core`, `wal`, …).
    pub crate_name: String,
    /// Repo-relative file path.
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the definition sits inside a `#[cfg(test)]`/`#[test]`
    /// span — exempt from L6–L8, still part of the graph.
    pub in_test: bool,
    /// The `impl` block's self type (`impl Foo`, `impl Bar for Foo` →
    /// `Foo`); `None` for free fns and trait-block default methods.
    pub self_type: Option<String>,
    /// The trait being implemented or declared (`impl Bar for Foo` /
    /// `trait Bar { .. }` → `Bar`).
    pub trait_name: Option<String>,
    /// Ordered body events.
    pub events: Vec<Event>,
}

impl FnDef {
    /// True when this definition plausibly belongs to a receiver whose
    /// type hints are `hints` (self type or implemented trait named).
    fn matches_hints(&self, hints: &[String]) -> bool {
        self.self_type.as_ref().is_some_and(|t| hints.iter().any(|h| h == t))
            || self.trait_name.as_ref().is_some_and(|t| hints.iter().any(|h| h == t))
    }
}

/// Returns the crate directory name for a repo-relative path
/// (`crates/core/src/x.rs` → `core`, `crates/compat/parking_lot/..` →
/// `parking_lot`).
pub fn crate_of(path: &str) -> Option<&str> {
    let mut parts = path.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    match parts.next() {
        Some("compat") => parts.next(),
        other => other,
    }
}

/// The crate dependency-direction map, parsed from each crate's
/// `Cargo.toml`. Cross-crate calls resolve only along declared
/// (transitive) dependency edges — cargo forbids cycles, which is what
/// keeps name-based resolution from inventing impossible call paths.
#[derive(Debug, Default)]
pub struct DepMap {
    /// crate → transitive dependency closure (crate directory names).
    deps: HashMap<String, HashSet<String>>,
}

impl DepMap {
    /// Loads and transitively closes `crates/*/Cargo.toml`
    /// (`[dependencies]` and `[dev-dependencies]`). Handles both the
    /// explicit `path = ".."` form and workspace inheritance
    /// (`rh-wal.workspace = true`), resolved through the root
    /// manifest's `[workspace.dependencies]` path table.
    pub fn load(root: &Path) -> std::io::Result<DepMap> {
        let workspace = match std::fs::read_to_string(root.join("Cargo.toml")) {
            Ok(text) => parse_workspace_dep_table(&text),
            Err(_) => HashMap::new(),
        };
        let mut direct: HashMap<String, HashSet<String>> = HashMap::new();
        let crates_dir = root.join("crates");
        let mut dirs: Vec<std::path::PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "compat") {
                    for sub in std::fs::read_dir(&path)? {
                        let sub = sub?.path();
                        if sub.is_dir() {
                            dirs.push(sub);
                        }
                    }
                } else {
                    dirs.push(path);
                }
            }
        }
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if !manifest.exists() {
                continue;
            }
            let name = dir.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
            let text = std::fs::read_to_string(&manifest)?;
            direct.insert(name.clone(), parse_dep_dirs(&text, &workspace));
        }
        Ok(DepMap { deps: transitive_close(direct) })
    }

    /// Builds a map from explicit `(crate, dep)` edges — for tests.
    pub fn from_edges(edges: &[(&str, &str)]) -> DepMap {
        let mut direct: HashMap<String, HashSet<String>> = HashMap::new();
        for (a, b) in edges {
            direct.entry((*a).to_string()).or_default().insert((*b).to_string());
            direct.entry((*b).to_string()).or_default();
        }
        DepMap { deps: transitive_close(direct) }
    }

    /// True when code in crate `from` can call into crate `to`.
    pub fn can_call(&self, from: &str, to: &str) -> bool {
        from == to || self.deps.get(from).is_some_and(|d| d.contains(to))
    }
}

/// Extracts the `path = "…"` value from one manifest line, reduced to
/// its last path component (`path = "crates/wal"` → `wal`).
fn path_dir_of(line: &str) -> Option<String> {
    let rest = line.split("path").nth(1)?;
    let q0 = rest.find('"')?;
    let q1 = rest[q0 + 1..].find('"')?;
    let path = &rest[q0 + 1..q0 + 1 + q1];
    path.rsplit('/').next().map(str::to_string)
}

/// Parses the root manifest's `[workspace.dependencies]` table into a
/// dep-name → crate-directory map (`rh-wal = { path = "crates/wal" }`
/// → `rh-wal ↦ wal`), so member manifests using workspace inheritance
/// (`rh-wal.workspace = true`) still resolve to a direction edge.
fn parse_workspace_dep_table(text: &str) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut in_table = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_table = line.starts_with("[workspace.dependencies]");
            continue;
        }
        if !in_table {
            continue;
        }
        let Some(name) = line.split('=').next().map(str::trim) else { continue };
        if name.is_empty() || name.starts_with('#') {
            continue;
        }
        if let Some(dir) = path_dir_of(line) {
            out.insert(name.to_string(), dir);
        }
    }
    out
}

/// Extracts the dependency *directory* names from one member
/// `Cargo.toml`: inside `[dependencies]`-like sections, either an
/// explicit `path = "…"` (last component) or a workspace-inherited
/// entry (`rh-wal.workspace = true` / `rh-wal = { workspace = true }`)
/// looked up in the root `workspace` table.
fn parse_dep_dirs(text: &str, workspace: &HashMap<String, String>) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line.contains("dependencies");
            continue;
        }
        if !in_deps || line.starts_with('#') {
            continue;
        }
        if let Some(dir) = path_dir_of(line) {
            out.insert(dir);
        } else if line.contains("workspace") {
            let name: String =
                line.chars().take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t')).collect();
            if let Some(dir) = workspace.get(&name) {
                out.insert(dir.clone());
            }
        }
    }
    out
}

fn transitive_close(direct: HashMap<String, HashSet<String>>) -> HashMap<String, HashSet<String>> {
    let mut closed = direct;
    loop {
        let mut grew = false;
        let keys: Vec<String> = closed.keys().cloned().collect();
        for k in &keys {
            let mut add = HashSet::new();
            for dep in closed[k].iter() {
                if let Some(dd) = closed.get(dep) {
                    for d2 in dd {
                        if !closed[k].contains(d2) {
                            add.insert(d2.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                closed.get_mut(k).expect("key").extend(add);
                grew = true;
            }
        }
        if !grew {
            return closed;
        }
    }
}

/// Method names so ubiquitous on std containers/iterators that
/// resolving them by bare name smears unrelated impls together
/// (`vec.len()` must not resolve to `LogManager::len`, which takes the
/// tail mutex — that invents a `records -> inner` edge and a false
/// cycle). Method calls with these names on a non-`self` receiver are
/// treated as opaque; `self.len()` still resolves same-file, which is
/// precise.
pub const OPAQUE_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "entry",
    "extend",
    "drain",
    "retain",
    "next",
    "take",
    "first",
    "last",
    "front",
    "back",
    "push_back",
    "pop_front",
    "min",
    "max",
    "count",
    "find",
    "position",
    "map",
    "filter",
    "fold",
    "rev",
    "clone",
    "cloned",
    "copied",
    "collect",
    "sort",
    "sort_by",
    "split_off",
    "to_vec",
    "as_slice",
    "as_bytes",
    "binary_search",
    "swap",
    "truncate",
    "resize",
    "reserve",
    "starts_with",
    "ends_with",
    "split",
    "join",
];

/// Keywords and control-flow idents never treated as call sites.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "mut", "ref", "let", "fn",
    "impl", "where", "use", "mod", "pub", "unsafe", "dyn", "self", "super", "crate", "true",
    "false", "else", "await", "box",
];

/// A guard lexically held during extraction.
struct Held {
    depth: i32,
    site: String,
    bound: bool,
    binder: Option<String>,
}

/// One `impl`/`trait` block span with its identity tags.
struct ImplBlock {
    open: usize,
    close: usize,
    self_type: Option<String>,
    trait_name: Option<String>,
}

/// Skips a balanced `<...>` group starting at `i` (which points at the
/// opening `<`), tolerating `->` inside `Fn(..) -> T` bounds. Returns
/// the index just past the closing `>`.
fn skip_generics(code: &[&Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        if code[j].is_punct('<') {
            depth += 1;
        } else if code[j].is_punct('>') && !(j > 0 && code[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if code[j].is_punct('{') || code[j].is_punct(';') {
            return j; // malformed / not generics — bail without consuming
        }
        j += 1;
    }
    j
}

/// Parses a type path starting at `i`: idents separated by `::`, with
/// trailing generics skipped. Returns (last path ident, index past it).
fn parse_type_path(code: &[&Token], i: usize) -> (Option<String>, usize) {
    let mut j = i;
    let mut last = None;
    loop {
        // Tolerate `&`/`mut`/`dyn` prefixes.
        while j < code.len()
            && (code[j].is_punct('&') || code[j].is_ident("mut") || code[j].is_ident("dyn"))
        {
            j += 1;
        }
        let Some(t) = code.get(j) else { break };
        if t.kind != Kind::Ident {
            break;
        }
        last = Some(t.text.clone());
        j += 1;
        if code.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_generics(code, j);
        }
        if code.get(j).is_some_and(|t| t.is_punct(':'))
            && code.get(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            j += 2;
            continue;
        }
        break;
    }
    (last, j)
}

/// Scans one file's code tokens for `impl`/`trait` blocks, recording
/// each block's token span and self-type / trait tags.
fn impl_blocks(code: &[&Token]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let (is_impl, is_trait) = (code[i].is_ident("impl"), code[i].is_ident("trait"));
        if !is_impl && !is_trait {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_generics(code, j);
        }
        let (first, after) = parse_type_path(code, j);
        j = after;
        let (self_type, trait_name) = if is_trait {
            (None, first)
        } else if code.get(j).is_some_and(|t| t.is_ident("for")) {
            let (ty, after2) = parse_type_path(code, j + 1);
            j = after2;
            (ty, first)
        } else {
            (first, None)
        };
        // Find the block open brace (skipping any `where` clause), then
        // its matching close.
        while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
            j += 1;
        }
        if !code.get(j).is_some_and(|t| t.is_punct('{')) {
            i = j + 1;
            continue;
        }
        let open = j;
        let mut depth = 0i32;
        let mut close = open;
        while close < code.len() {
            if code[close].is_punct('{') {
                depth += 1;
            } else if code[close].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        out.push(ImplBlock { open, close, self_type, trait_name });
        i = open + 1; // descend: impl blocks contain the fns we tag
    }
    out
}

/// Collects per-file receiver type hints from `ident: Type` declarations
/// (struct fields, fn params, let ascriptions): maps the lowercase ident
/// to the uppercase idents of its declared type (`file: Arc<dyn
/// WalFile>` → `file ↦ {Arc, WalFile}`).
fn type_hints(code: &[&Token]) -> HashMap<String, BTreeSet<String>> {
    let mut out: HashMap<String, BTreeSet<String>> = HashMap::new();
    for k in 0..code.len() {
        let t = code[k];
        if t.kind != Kind::Ident
            || !t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
        {
            continue;
        }
        let colon = code.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !code.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && !(k > 0 && code[k - 1].is_punct(':'));
        if !colon {
            continue;
        }
        let mut tys = BTreeSet::new();
        for &n in code.iter().take((k + 18).min(code.len())).skip(k + 2) {
            if n.is_punct(',')
                || n.is_punct(';')
                || n.is_punct(')')
                || n.is_punct('=')
                || n.is_punct('{')
                || n.is_punct('}')
                || n.is_punct('|')
            {
                break;
            }
            if n.kind == Kind::Ident && n.text.chars().next().is_some_and(char::is_uppercase) {
                tys.insert(n.text.clone());
            }
        }
        if !tys.is_empty() {
            out.entry(t.text.clone()).or_default().extend(tys);
        }
    }
    out
}

/// True for a conventional type-parameter name: a single uppercase
/// letter (`E`, `R`, `T`).
fn is_type_param(name: &str) -> bool {
    name.len() == 1 && name.chars().next().is_some_and(char::is_uppercase)
}

/// Collects the file's `fn name(..) -> Type` return-type map: the
/// uppercase idents of each fn's declared return type (`fn stable(&self)
/// -> &StableLog` → `stable ↦ {StableLog}`). `Self` is skipped — it
/// names a different type per impl block, and unioning it across the
/// workspace would glue every `new()` to every impl. A single-letter
/// type parameter resolves through its declared bound (`impl<E:
/// TxnEngine> EtmSession<E> { fn engine(..) -> &mut E }` → `engine ↦
/// {TxnEngine}`), scanned file-locally from `X: Trait` pairs. Used to
/// type the receiver of chained calls
/// (`self.log.stable().set_master(..)`).
fn return_types(code: &[&Token]) -> HashMap<String, BTreeSet<String>> {
    // Type-parameter bounds: `E: TxnEngine` anywhere in the file.
    let mut bounds: HashMap<String, BTreeSet<String>> = HashMap::new();
    for k in 0..code.len().saturating_sub(2) {
        if code[k].kind == Kind::Ident
            && is_type_param(&code[k].text)
            && code[k + 1].is_punct(':')
            && !code.get(k + 2).is_some_and(|t| t.is_punct(':'))
            && code[k + 2].kind == Kind::Ident
            && code[k + 2].text.chars().next().is_some_and(char::is_uppercase)
        {
            bounds.entry(code[k].text.clone()).or_default().insert(code[k + 2].text.clone());
        }
    }
    let mut out: HashMap<String, BTreeSet<String>> = HashMap::new();
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("fn") || !code.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
            i += 1;
            continue;
        }
        let name = code[i + 1].text.clone();
        // Skip to the parameter list, then past its matching `)`.
        let mut j = i + 2;
        if code.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_generics(code, j);
        }
        if !code.get(j).is_some_and(|t| t.is_punct('(')) {
            i = j;
            continue;
        }
        let mut pd = 0i32;
        while j < code.len() {
            if code[j].is_punct('(') {
                pd += 1;
            } else if code[j].is_punct(')') {
                pd -= 1;
                if pd == 0 {
                    break;
                }
            }
            j += 1;
        }
        // `-> Type` before the body / terminator.
        let arrow = code.get(j + 1).is_some_and(|t| t.is_punct('-'))
            && code.get(j + 2).is_some_and(|t| t.is_punct('>'));
        if arrow {
            let mut tys = BTreeSet::new();
            let mut k = j + 3;
            while let Some(t) = code.get(k) {
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                if t.kind == Kind::Ident
                    && t.text != "Self"
                    && t.text.chars().next().is_some_and(char::is_uppercase)
                {
                    if is_type_param(&t.text) {
                        if let Some(b) = bounds.get(&t.text) {
                            tys.extend(b.iter().cloned());
                        }
                    } else {
                        tys.insert(t.text.clone());
                    }
                }
                k += 1;
            }
            if !tys.is_empty() {
                out.entry(name).or_default().extend(tys);
            }
        }
        i = j + 1;
    }
    out
}

/// Extracts every function definition (with events) from the given
/// files. `crates/compat/` is skipped — the shim's own `.lock()` calls
/// are the instrument, not the subject.
pub fn extract(files: &[SourceFile]) -> Vec<FnDef> {
    // Pass 1: the workspace-global field-type map — `obs.registry.add(..)`
    // in core resolves through obs's own `registry: Registry` field
    // declaration, which the caller's file never spells out — and the
    // return-type map for typing chained receivers.
    let mut global: HashMap<String, BTreeSet<String>> = HashMap::new();
    let mut returns: HashMap<String, BTreeSet<String>> = HashMap::new();
    let mut closures: HashMap<String, Vec<BTreeSet<String>>> = HashMap::new();
    for f in files {
        if f.path.starts_with("crates/compat/") || crate_of(&f.path).is_none() {
            continue;
        }
        let code = f.code();
        for (k, v) in type_hints(&code) {
            global.entry(k).or_default().extend(v);
        }
        for (k, v) in return_types(&code) {
            returns.entry(k).or_default().extend(v);
        }
        closure_bounds(&code, &mut closures);
    }
    let mut out = Vec::new();
    for f in files {
        if f.path.starts_with("crates/compat/") {
            continue;
        }
        let Some(crate_name) = crate_of(&f.path) else { continue };
        let code = f.code();
        let blocks = impl_blocks(&code);
        let hints = type_hints(&code);
        let mut i = 0usize;
        while i < code.len() {
            let is_def =
                code[i].is_ident("fn") && code.get(i + 1).is_some_and(|t| t.kind == Kind::Ident);
            if !is_def {
                i += 1;
                continue;
            }
            let name = code[i + 1].text.clone();
            let line = code[i].line;
            // Find the body: first `{` before a terminating `;`
            // (trait method declarations have no body).
            let mut j = i + 2;
            let body_open = loop {
                match code.get(j) {
                    None => break None,
                    Some(t) if t.is_punct('{') => break Some(j),
                    Some(t) if t.is_punct(';') => break None,
                    Some(_) => j += 1,
                }
            };
            let Some(open) = body_open else {
                i = j;
                continue;
            };
            // Matching close brace.
            let mut depth = 0i32;
            let mut close = open;
            while close < code.len() {
                if code[close].is_punct('{') {
                    depth += 1;
                } else if code[close].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                close += 1;
            }
            let body = &code[open..=close.min(code.len() - 1)];
            let events = extract_body(body, crate_name, &hints, &global, &returns, &closures);
            let owner = blocks.iter().rfind(|b| b.open < i && i < b.close);
            out.push(FnDef {
                crate_name: crate_name.to_string(),
                file: f.path.clone(),
                name,
                line,
                in_test: in_spans(&f.test_spans, line),
                self_type: owner.and_then(|b| b.self_type.clone()),
                trait_name: owner.and_then(|b| b.trait_name.clone()),
                events,
            });
            i = close + 1;
        }
    }
    out
}

/// True when the `|` at `i` opens a closure (preceded by `(`, `,`, `=`,
/// or `move`).
fn opens_closure(body: &[&Token], i: usize) -> bool {
    body[i].is_punct('|')
        && (i == 0
            || body[i - 1].is_punct('(')
            || body[i - 1].is_punct(',')
            || body[i - 1].is_punct('=')
            || body[i - 1].is_ident("move"))
}

/// The parameter names of the closure whose opening `|` is at `open`,
/// in order, up to the closing `|`, skipping type annotations after
/// `:`.
fn closure_param_names(body: &[&Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = open + 1;
    let mut in_type = false;
    let mut steps = 0;
    while k < body.len() && !body[k].is_punct('|') && steps < 24 {
        if body[k].is_punct(':') {
            in_type = true;
        } else if body[k].is_punct(',') {
            in_type = false;
        } else if !in_type
            && body[k].kind == Kind::Ident
            && !body[k].is_ident("mut")
            && !body[k].is_ident("ref")
        {
            out.push(body[k].text.clone());
        }
        k += 1;
        steps += 1;
    }
    out
}

/// Adds the file's closure-argument bounds to `out`: for each `fn`
/// whose signature takes an `Fn(A, B)` / `FnMut(..)` / `FnOnce(..)`
/// bound, the uppercase idents of each closure parameter's type, by
/// position (`fn on_shard(.., f: impl FnOnce(&mut RhDb) -> R)` →
/// `on_shard ↦ [{RhDb}]`). Types a closure literal's parameters at the
/// call site, so `on_shard(.., |eng| eng.write(..))` resolves `write`
/// on the engine, not on the router that defines a `write` of its own.
fn closure_bounds(code: &[&Token], out: &mut HashMap<String, Vec<BTreeSet<String>>>) {
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("fn") || !code.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
            i += 1;
            continue;
        }
        let name = code[i + 1].text.clone();
        let mut j = i + 2;
        while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
            let bound = ["Fn", "FnMut", "FnOnce"].iter().any(|b| code[j].is_ident(b))
                && code.get(j + 1).is_some_and(|t| t.is_punct('('));
            if !bound {
                j += 1;
                continue;
            }
            let slots = out.entry(name.clone()).or_default();
            let (mut pos, mut pd) = (0usize, 0i32);
            j += 1;
            while j < code.len() {
                let t = code[j];
                if t.is_punct('(') {
                    pd += 1;
                } else if t.is_punct(')') {
                    pd -= 1;
                    if pd == 0 {
                        break;
                    }
                } else if t.is_punct(',') && pd == 1 {
                    pos += 1;
                } else if t.kind == Kind::Ident
                    && t.text != "Self"
                    && t.text.chars().next().is_some_and(char::is_uppercase)
                {
                    if slots.len() <= pos {
                        slots.resize(pos + 1, BTreeSet::new());
                    }
                    slots[pos].insert(t.text.clone());
                }
                j += 1;
            }
        }
        i = j;
    }
}

/// True when a guard-producing call at `close_paren` ends its statement
/// after an optional `.unwrap()` / `.expect("..")` tail — i.e. a
/// `let g = x.lock();` (or std-mutex `let g = x.lock().unwrap();`)
/// binds the guard.
fn guard_statement_ends(code: &[&Token], close_paren: usize) -> bool {
    let mut j = close_paren;
    loop {
        match code.get(j + 1) {
            Some(t) if t.is_punct(';') => return true,
            Some(t) if t.is_punct('.') => {
                let adapter = code.get(j + 2).is_some_and(|t| {
                    t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("into_inner")
                });
                if !adapter || !code.get(j + 3).is_some_and(|t| t.is_punct('(')) {
                    return false;
                }
                // Skip to the adapter call's close paren (0 or 1 args).
                let mut k = j + 4;
                let mut pd = 1;
                while k < code.len() && pd > 0 {
                    if code[k].is_punct('(') {
                        pd += 1;
                    } else if code[k].is_punct(')') {
                        pd -= 1;
                    }
                    k += 1;
                }
                j = k - 1;
            }
            _ => return false,
        }
    }
}

/// An open call whose argument list the cursor is currently inside.
struct OpenCall {
    event_idx: Option<usize>,
    paren_open: i32,
}

fn snapshot(held: &[Held]) -> Vec<String> {
    let set: BTreeSet<&str> = held.iter().map(|h| h.site.as_str()).collect();
    set.into_iter().map(str::to_string).collect()
}

/// Walks one fn body (`code[0]` is the opening `{`), producing events.
/// `hints` is the file's receiver-type map from [`type_hints`];
/// `global` the workspace-wide union, consulted when the file is silent
/// about a receiver (fields of types declared in other crates);
/// `returns` the workspace return-type map from [`return_types`], used
/// to type chained receivers (`x.stable().set_master(..)`); `closures`
/// the workspace closure-argument bounds from [`closure_bounds`], used
/// to type closure parameters by the callee they are handed to.
fn extract_body(
    code: &[&Token],
    crate_name: &str,
    hints: &HashMap<String, BTreeSet<String>>,
    global: &HashMap<String, BTreeSet<String>>,
    returns: &HashMap<String, BTreeSet<String>>,
    closures: &HashMap<String, Vec<BTreeSet<String>>>,
) -> Vec<Event> {
    let lookup = |name: &str| hints.get(name).or_else(|| global.get(name));
    let params: HashSet<String> = (0..code.len())
        .filter(|&i| opens_closure(code, i))
        .flat_map(|i| closure_param_names(code, i))
        .collect();
    // Closure parameters typed by the callee's `Fn*(..)` bound; they
    // shadow any same-named declaration elsewhere in the file.
    let mut typed_params: HashMap<String, BTreeSet<String>> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut paren = 0i32;
    let mut open_calls: Vec<OpenCall> = Vec::new();
    let mut last_let_depth: Option<i32> = None;
    let mut pending_binder: Option<String> = None;
    for (i, t) in code.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
            continue;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
            continue;
        } else if t.is_punct('(') {
            paren += 1;
            continue;
        } else if t.is_punct(')') {
            paren -= 1;
            while open_calls.last().is_some_and(|c| c.paren_open >= paren) {
                open_calls.pop();
            }
            continue;
        } else if t.is_punct(';') {
            held.retain(|h| h.bound || h.depth < depth);
            last_let_depth = None;
            pending_binder = None;
            continue;
        } else if t.is_punct(',') && paren == 0 {
            // A statement-position comma (match arm boundary, struct
            // literal field) ends any temporary guard: `Backend::Mem(m)
            // => *m.base.lock(),` must not leak `base` into the next
            // arm.
            held.retain(|h| h.bound || h.depth < depth);
            continue;
        } else if t.is_ident("let") {
            last_let_depth = Some(depth);
            let mut k = i + 1;
            if code.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            pending_binder = code.get(k).and_then(|t| {
                let lower_start =
                    t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_');
                (t.kind == Kind::Ident && lower_start).then(|| t.text.clone())
            });
            continue;
        }
        if opens_closure(code, i) {
            let callee = open_calls.iter().rev().find_map(|c| c.event_idx).and_then(|e| {
                match &events[e].kind {
                    EventKind::Call { name, .. } => closures.get(name),
                    EventKind::Acquire { .. } => None,
                }
            });
            if let Some(slots) = callee {
                for (p, tys) in closure_param_names(code, i).into_iter().zip(slots) {
                    typed_params.insert(p, tys.clone());
                }
            }
            continue;
        }
        if t.kind != Kind::Ident {
            continue;
        }
        // Lock acquisition: `<recv> . lock|read|write ( )`.
        let empty_call = code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.is_punct(')'));
        let is_acquire = ACQUIRERS.iter().any(|a| t.is_ident(a))
            && empty_call
            && i >= 2
            && code[i - 1].is_punct('.')
            && code[i - 2].kind == Kind::Ident;
        if is_acquire {
            let recv = &code[i - 2].text;
            let site = format!("{crate_name}.{recv}");
            events.push(Event {
                kind: EventKind::Acquire { site: site.clone() },
                line: t.line,
                held: snapshot(&held),
            });
            let bound = last_let_depth == Some(depth) && guard_statement_ends(code, i + 2);
            held.push(Held {
                depth,
                site,
                bound,
                binder: if bound { pending_binder.clone() } else { None },
            });
            continue;
        }
        // Explicit `drop(g)` releases the named guard early — the
        // canonical unlock-before-sync idiom must not report the sync
        // as held.
        if t.is_ident("drop")
            && !(i >= 1 && code[i - 1].is_punct('.'))
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.kind == Kind::Ident)
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            let victim = &code[i + 2].text;
            held.retain(|h| h.binder.as_deref() != Some(victim.as_str()));
            continue;
        }
        // Call site: `name (` — not a macro, keyword, definition, or
        // type/variant constructor.
        let is_call = code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i >= 1 && code[i - 1].is_ident("fn"))
            && !NOT_CALLS.contains(&t.text.as_str())
            && t.text.chars().next().is_some_and(char::is_lowercase);
        if !is_call {
            continue;
        }
        let method = i >= 1 && code[i - 1].is_punct('.');
        // `Type::name(..)` path calls carry their qualifier as a type
        // hint; `Self::name(..)` resolves like `self.name(..)`.
        let qualifier = if !method
            && i >= 3
            && code[i - 1].is_punct(':')
            && code[i - 2].is_punct(':')
            && code[i - 3].kind == Kind::Ident
            && code[i - 3].text.chars().next().is_some_and(char::is_uppercase)
        {
            Some(code[i - 3].text.clone())
        } else {
            None
        };
        let recv = if qualifier.as_deref() == Some("Self") {
            Receiver::SelfRecv
        } else if !method {
            Receiver::Plain
        } else if i >= 2 && code[i - 2].is_ident("self") {
            Receiver::SelfRecv
        } else if i >= 2
            && code[i - 2].kind == Kind::Ident
            && (params.contains(&code[i - 2].text)
                || held.iter().any(|h| h.binder.as_deref() == Some(code[i - 2].text.as_str())))
        {
            Receiver::Foreign
        } else if i >= 2 && code[i - 2].kind == Kind::Ident {
            Receiver::Plain
        } else {
            Receiver::Expr
        };
        // Receiver type hints: the qualifier itself, the receiver
        // ident's declared type, and — through a guard binder — the
        // declared type of the lock field the guard came from.
        let mut tys: BTreeSet<String> = BTreeSet::new();
        match qualifier {
            Some(q) if q != "Self" => {
                tys.insert(q);
            }
            _ => {
                if method && i >= 2 && code[i - 2].kind == Kind::Ident {
                    let r = &code[i - 2].text;
                    if let Some(h) = typed_params.get(r).or_else(|| lookup(r)) {
                        tys.extend(h.iter().cloned());
                    }
                    for h in held.iter().filter(|h| h.binder.as_deref() == Some(r.as_str())) {
                        if let Some(field) = h.site.split('.').next_back() {
                            if let Some(ft) = lookup(field) {
                                tys.extend(ft.iter().cloned());
                            }
                        }
                    }
                } else if method && i >= 2 && code[i - 2].is_punct(')') {
                    // Chained receiver `inner(..).name(..)`: type the
                    // receiver by the inner call's declared return type
                    // (`eng.engine().checkpoint()` → `engine() ->
                    // &mut RhDb` → hint `RhDb`). Walk back over the
                    // inner call's balanced parens to its name.
                    let mut k = i - 2;
                    let mut pd = 0i32;
                    loop {
                        if code[k].is_punct(')') {
                            pd += 1;
                        } else if code[k].is_punct('(') {
                            pd -= 1;
                            if pd == 0 {
                                break;
                            }
                        }
                        if k == 0 {
                            break;
                        }
                        k -= 1;
                    }
                    if pd == 0 && k >= 1 && code[k - 1].kind == Kind::Ident {
                        if let Some(rt) = returns.get(&code[k - 1].text) {
                            tys.extend(rt.iter().cloned());
                        }
                    }
                }
            }
        }
        let recv_types: Vec<String> = tys.into_iter().collect();
        let sink = SinkClass::of(&t.text);
        let held_now = snapshot(&held);
        // Socket-send exclusion: the guard *of the socket itself* is
        // expected around a send (a write-half mutex keeps frames
        // whole). Drop the receiver's own guard: by binder name, or —
        // for the chained `x.lock().write_all(..)` shape — by site.
        let sink_held = if sink == Some(SinkClass::Send) && method {
            let mut dropped: Vec<String> = Vec::new();
            if i >= 2 && code[i - 2].kind == Kind::Ident {
                let r = &code[i - 2].text;
                dropped.extend(
                    held.iter()
                        .filter(|h| h.binder.as_deref() == Some(r.as_str()))
                        .map(|h| h.site.clone()),
                );
            }
            if i >= 6
                && code[i - 2].is_punct(')')
                && code[i - 3].is_punct('(')
                && ACQUIRERS.iter().any(|a| code[i - 4].is_ident(a))
                && code[i - 5].is_punct('.')
                && code[i - 6].kind == Kind::Ident
            {
                dropped.push(format!("{crate_name}.{}", code[i - 6].text));
            }
            held_now.iter().filter(|s| !dropped.contains(s)).cloned().collect()
        } else {
            held_now.clone()
        };
        let enclosing = open_calls.iter().rev().find_map(|c| c.event_idx);
        events.push(Event {
            kind: EventKind::Call {
                name: t.text.clone(),
                recv,
                method,
                recv_types,
                enclosing,
                sink,
                sink_held,
            },
            line: t.line,
            held: held_now,
        });
        open_calls.push(OpenCall { event_idx: Some(events.len() - 1), paren_open: paren });
    }
    events
}

/// The assembled call graph: definitions plus a name index.
#[derive(Debug)]
pub struct CallGraph {
    /// All extracted definitions.
    pub fns: Vec<FnDef>,
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Indexes the given definitions.
    pub fn build(fns: Vec<FnDef>) -> CallGraph {
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        CallGraph { fns, by_name }
    }

    /// Resolves a call by name from `caller`.
    ///
    /// * `self.f(..)` prefers same-file definitions (the caller's own
    ///   impl), then same crate, then dependencies.
    /// * A plain receiver unions *all* same-crate candidates — trait
    ///   impls live in sibling files (`MemLog` vs `FileLog` both define
    ///   `append_encoded`), and preferring the caller's file would hide
    ///   the fsyncing backend from the may-sink closure.
    /// * A [`Receiver::Foreign`] receiver additionally skips same-file
    ///   candidates (the receiver was handed in from elsewhere; the
    ///   router's identically-named wrapper is exactly the wrong
    ///   target).
    /// * When receiver type hints are known (`recv_types` non-empty),
    ///   resolution is *typed*: only candidates whose `impl` block's
    ///   self type or trait matches a hint survive — and if none match,
    ///   the call is a std-library method and resolves to nothing
    ///   (`Arc::new(..)` never resolves to a workspace `fn new`).
    /// * [`OPAQUE_METHODS`] on a non-`self` receiver never resolve.
    pub fn resolve(
        &self,
        caller: usize,
        name: &str,
        recv: Receiver,
        method: bool,
        recv_types: &[String],
        deps: &DepMap,
    ) -> Vec<usize> {
        if method && recv != Receiver::SelfRecv && OPAQUE_METHODS.contains(&name) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(name) else { return Vec::new() };
        let cf = &self.fns[caller];
        if !recv_types.is_empty() && recv != Receiver::SelfRecv {
            return cands
                .iter()
                .copied()
                .filter(|&c| {
                    self.fns[c].matches_hints(recv_types)
                        && deps.can_call(&cf.crate_name, &self.fns[c].crate_name)
                })
                .collect();
        }
        if recv == Receiver::Expr {
            // Chained-expression receiver: resolve only a workspace-
            // unique name; ambiguity means a std builder/iterator chain
            // (`OpenOptions::new()..open(path)` must not resolve to
            // `LogManager::open`).
            let allowed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| deps.can_call(&cf.crate_name, &self.fns[c].crate_name))
                .collect();
            return if allowed.len() == 1 { allowed } else { Vec::new() };
        }
        if recv == Receiver::SelfRecv {
            let same_file: Vec<usize> =
                cands.iter().copied().filter(|&c| self.fns[c].file == cf.file).collect();
            if !same_file.is_empty() {
                return same_file;
            }
        }
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                self.fns[c].crate_name == cf.crate_name
                    && !(recv == Receiver::Foreign && self.fns[c].file == cf.file)
            })
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        cands
            .iter()
            .copied()
            .filter(|&c| {
                self.fns[c].crate_name != cf.crate_name
                    && deps.can_call(&cf.crate_name, &self.fns[c].crate_name)
            })
            .collect()
    }

    /// Resolves every call event once. Entry `[f][e]` is empty for
    /// acquisitions and unresolved calls.
    pub fn resolve_all(&self, deps: &DepMap) -> Vec<Vec<Vec<usize>>> {
        (0..self.fns.len())
            .map(|fi| {
                self.fns[fi]
                    .events
                    .iter()
                    .map(|ev| match &ev.kind {
                        EventKind::Acquire { .. } => Vec::new(),
                        EventKind::Call { name, recv, method, recv_types, .. } => {
                            self.resolve(fi, name, *recv, *method, recv_types, deps)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The may-acquire fixpoint: per fn, every site it (or any resolved
    /// transitive callee) may acquire.
    pub fn may_acquire(&self, resolved: &[Vec<Vec<usize>>]) -> Vec<BTreeSet<String>> {
        let mut ma: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|f| {
                f.events
                    .iter()
                    .filter_map(|e| match &e.kind {
                        EventKind::Acquire { site } => Some(site.clone()),
                        EventKind::Call { .. } => None,
                    })
                    .collect()
            })
            .collect();
        loop {
            let mut grew = false;
            for fi in 0..self.fns.len() {
                let mut add: Vec<String> = Vec::new();
                for callees in &resolved[fi] {
                    for &c in callees {
                        for s in &ma[c] {
                            if !ma[fi].contains(s) {
                                add.push(s.clone());
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    ma[fi].extend(add);
                    grew = true;
                }
            }
            if !grew {
                return ma;
            }
        }
    }

    /// The may-sink fixpoint: per fn, every sink class it (or any
    /// resolved transitive callee) may reach. A named sink counts only
    /// when resolution found no workspace definition — a workspace fn
    /// named `flush` is a call, and its own body decides.
    pub fn may_sink(&self, resolved: &[Vec<Vec<usize>>]) -> Vec<BTreeSet<SinkClass>> {
        let mut ms: Vec<BTreeSet<SinkClass>> = (0..self.fns.len())
            .map(|fi| {
                self.fns[fi]
                    .events
                    .iter()
                    .enumerate()
                    .filter_map(|(ei, e)| match &e.kind {
                        EventKind::Call { sink: Some(c), .. } if resolved[fi][ei].is_empty() => {
                            Some(*c)
                        }
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        loop {
            let mut grew = false;
            for fi in 0..self.fns.len() {
                let mut add: Vec<SinkClass> = Vec::new();
                for callees in &resolved[fi] {
                    for &c in callees {
                        for s in &ms[c] {
                            if !ms[fi].contains(s) {
                                add.push(*s);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    ms[fi].extend(add);
                    grew = true;
                }
            }
            if !grew {
                return ms;
            }
        }
    }

    /// Sites held at *unresolved free* call events inside `f` — the
    /// points where a higher-order fn invokes a closure it was handed
    /// (`f(&mut engine)` in `on_shard`). Used to source edges for calls
    /// written inside another call's argument list. Method calls are
    /// excluded: an unresolved `.len()` is a std container query, not a
    /// closure invocation.
    pub fn closure_invoke_held(&self, fi: usize, resolved: &[Vec<Vec<usize>>]) -> BTreeSet<String> {
        self.fns[fi]
            .events
            .iter()
            .enumerate()
            .filter(|(ei, e)| {
                matches!(e.kind, EventKind::Call { sink: None, method: false, .. })
                    && resolved[fi][*ei].is_empty()
            })
            .flat_map(|(_, e)| e.held.iter().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    #[test]
    fn crate_of_handles_compat() {
        assert_eq!(crate_of("crates/core/src/engine.rs"), Some("core"));
        assert_eq!(crate_of("crates/compat/parking_lot/src/lib.rs"), Some("parking_lot"));
        assert_eq!(crate_of("src/main.rs"), None);
    }

    #[test]
    fn extracts_acquire_with_held_set() {
        let f = file(
            "crates/eos/src/global.rs",
            "fn flush(&self) { let b = self.batches.lock(); let s = self.snapshot.lock(); }",
        );
        let fns = extract(&[f]);
        assert_eq!(fns.len(), 1);
        let acquires: Vec<(&str, &[String])> = fns[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { site } => Some((site.as_str(), e.held.as_slice())),
                _ => None,
            })
            .collect();
        assert_eq!(acquires.len(), 2);
        assert_eq!(acquires[0].0, "eos.batches");
        assert!(acquires[0].1.is_empty());
        assert_eq!(acquires[1].0, "eos.snapshot");
        assert_eq!(acquires[1].1, ["eos.batches".to_string()]);
    }

    #[test]
    fn std_mutex_unwrap_still_binds_guard() {
        let f = file(
            "crates/obs/src/registry.rs",
            "fn inc(&self) { let g = self.families.lock().unwrap(); g.push(1); let h = self.other.lock(); }",
        );
        let fns = extract(&[f]);
        let last = fns[0]
            .events
            .iter()
            .rev()
            .find_map(|e| match &e.kind {
                EventKind::Acquire { site } if site == "obs.other" => Some(e.held.clone()),
                _ => None,
            })
            .expect("second acquire");
        assert_eq!(last, ["obs.families".to_string()], "unwrap()-adapted guard stays held");
    }

    #[test]
    fn calls_carry_held_and_receiver_shape() {
        let f = file(
            "crates/server/src/server.rs",
            "fn commit(&self) { let mut eng = self.engine.lock(); eng.commit_with(t); self.emit(t); }",
        );
        let fns = extract(&[f]);
        let calls: Vec<(&str, Receiver, &[String])> = fns[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { name, recv, .. } => {
                    Some((name.as_str(), *recv, e.held.as_slice()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].0, "commit_with");
        assert_eq!(calls[0].1, Receiver::Foreign, "guard binder receiver is foreign");
        assert_eq!(calls[0].2, ["server.engine".to_string()]);
        assert_eq!(calls[1].1, Receiver::SelfRecv);
    }

    #[test]
    fn closure_params_are_foreign_receivers_with_enclosing_call() {
        let f = file(
            "crates/core/src/sharded/mod.rs",
            "fn read(&self, ob: u64) { self.on_shard(s, |eng| eng.get(ob)); }",
        );
        let fns = extract(&[f]);
        let mut on_shard_idx = None;
        for (i, e) in fns[0].events.iter().enumerate() {
            if let EventKind::Call { name, .. } = &e.kind {
                if name == "on_shard" {
                    on_shard_idx = Some(i);
                }
            }
        }
        let get = fns[0]
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call { name, recv, enclosing, .. } if name == "get" => {
                    Some((*recv, *enclosing))
                }
                _ => None,
            })
            .expect("inner call");
        assert_eq!(get.0, Receiver::Foreign);
        assert_eq!(get.1, on_shard_idx, "inner call nests inside on_shard's args");
    }

    #[test]
    fn sink_classification_and_send_exclusion() {
        let f = file(
            "crates/server/src/conn.rs",
            "fn reply(&self) { let mut o = self.out.lock(); o.write_all(buf); }",
        );
        let fns = extract(&[f]);
        let (sink, sink_held, held) = fns[0]
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call { name, sink, sink_held, .. } if name == "write_all" => {
                    Some((*sink, sink_held.clone(), e.held.clone()))
                }
                _ => None,
            })
            .expect("write_all event");
        assert_eq!(sink, Some(SinkClass::Send));
        assert_eq!(held, ["server.out".to_string()]);
        assert!(sink_held.is_empty(), "the socket's own guard is excluded from L7");
    }

    #[test]
    fn fsync_sink_keeps_full_held_set() {
        let f = file(
            "crates/wal/src/log.rs",
            "fn force(&self) { let g = self.state.lock(); self.file.sync_all(); }",
        );
        let fns = extract(&[f]);
        let (sink, sink_held) = fns[0]
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call { name, sink, sink_held, .. } if name == "sync_all" => {
                    Some((*sink, sink_held.clone()))
                }
                _ => None,
            })
            .expect("sync_all event");
        assert_eq!(sink, Some(SinkClass::Fsync));
        assert_eq!(sink_held, ["wal.state".to_string()]);
    }

    #[test]
    fn resolution_tiers_and_foreign_exclusion() {
        let files = vec![
            file(
                "crates/core/src/sharded/mod.rs",
                "fn abort(&self) { self.gtxns.lock(); }\n\
                 fn run(&self) { let mut engine = self.engine.lock(); engine.abort(t); }",
            ),
            file("crates/core/src/engine.rs", "fn abort(&self) { self.prov.lock(); }"),
            file("crates/wal/src/log.rs", "fn abort(&self) { self.state.lock(); }"),
        ];
        let fns = extract(&files);
        let cg = CallGraph::build(fns);
        let deps = DepMap::from_edges(&[("core", "wal")]);
        let run = cg.fns.iter().position(|f| f.name == "run").unwrap();
        let resolved = cg.resolve(run, "abort", Receiver::Foreign, true, &[], &deps);
        assert_eq!(resolved.len(), 1, "foreign receiver skips the same-file candidate");
        assert_eq!(cg.fns[resolved[0]].file, "crates/core/src/engine.rs");
        let resolved_self = cg.resolve(run, "abort", Receiver::SelfRecv, true, &[], &deps);
        assert_eq!(cg.fns[resolved_self[0]].file, "crates/core/src/sharded/mod.rs");
        let resolved_plain = cg.resolve(run, "abort", Receiver::Plain, true, &[], &deps);
        assert_eq!(resolved_plain.len(), 2, "plain receiver unions the whole crate");
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let f = file(
            "crates/wal/src/filelog.rs",
            "fn prune(&self) { let st = self.state.lock(); touch(st); drop(st); self.io.sync_dir(d); }",
        );
        let fns = extract(&[f]);
        let (sink, held) = fns[0]
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call { name, sink, .. } if name == "sync_dir" => {
                    Some((*sink, e.held.clone()))
                }
                _ => None,
            })
            .expect("sync_dir event");
        assert_eq!(sink, Some(SinkClass::Fsync));
        assert!(held.is_empty(), "drop(st) released the guard before the sync");
    }

    #[test]
    fn match_arm_comma_ends_temporary_guards() {
        let f = file(
            "crates/wal/src/log.rs",
            "fn base(&self) -> u64 { match &self.backend { M(m) => *m.base.lock(), F(f) => f.remote(), } }",
        );
        let fns = extract(&[f]);
        let held = fns[0]
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call { name, .. } if name == "remote" => Some(e.held.clone()),
                _ => None,
            })
            .expect("second-arm call");
        assert!(held.is_empty(), "first arm's temporary must not leak: {held:?}");
    }

    #[test]
    fn typed_resolution_filters_by_impl_block() {
        let files = vec![
            file(
                "crates/wal/src/filelog.rs",
                "struct FileLog { io: Arc<dyn WalIo> }\n\
                 impl FileLog { fn roll(&self) { self.io.create(p); } }",
            ),
            file(
                "crates/wal/src/io.rs",
                "impl WalIo for StdIo { fn create(&self) { } }\n\
                 impl LogManager { fn create(&self) { self.inner.lock(); } }",
            ),
        ];
        let fns = extract(&files);
        let cg = CallGraph::build(fns);
        let deps = DepMap::from_edges(&[]);
        let resolved = cg.resolve_all(&deps);
        let roll = cg.fns.iter().position(|f| f.name == "roll").unwrap();
        let ma = cg.may_acquire(&resolved);
        assert!(
            ma[roll].is_empty(),
            "io: Arc<dyn WalIo> must resolve create to the WalIo impl only: {:?}",
            ma[roll]
        );
    }

    #[test]
    fn expression_receivers_resolve_only_unique_names() {
        let files = vec![file(
            "crates/wal/src/io.rs",
            "impl WalIo for StdIo { fn open2(&self) { options().open(p); } }\n\
             impl LogManager { fn open(&self) { self.inner.lock(); } }\n\
             impl FileLog { fn open(&self) { self.state.lock(); } }",
        )];
        let fns = extract(&files);
        let cg = CallGraph::build(fns);
        let deps = DepMap::from_edges(&[]);
        let resolved = cg.resolve_all(&deps);
        let ma = cg.may_acquire(&resolved);
        let open2 = cg.fns.iter().position(|f| f.name == "open2").unwrap();
        assert!(
            ma[open2].is_empty(),
            "ambiguous chained .open() must stay unresolved: {:?}",
            ma[open2]
        );
    }

    #[test]
    fn opaque_container_methods_never_resolve() {
        let files = vec![file(
            "crates/wal/src/log.rs",
            "fn len(&self) -> usize { self.records.lock().len() }\n\
             fn horizon(&self) { let g = self.inner.lock(); buf.len(); }",
        )];
        let fns = extract(&files);
        let cg = CallGraph::build(fns);
        let deps = DepMap::from_edges(&[]);
        let horizon = cg.fns.iter().position(|f| f.name == "horizon").unwrap();
        assert!(
            cg.resolve(horizon, "len", Receiver::Plain, true, &[], &deps).is_empty(),
            "vec.len() must not resolve to the tail-mutex accessor"
        );
        // And an unresolved *method* call never counts as a closure
        // invocation point.
        let resolved = cg.resolve_all(&deps);
        assert!(cg.closure_invoke_held(horizon, &resolved).is_empty());
    }

    #[test]
    fn may_acquire_crosses_crates_along_dep_direction() {
        let files = vec![
            file(
                "crates/server/src/server.rs",
                "fn commit(&self) { let mut eng = self.engine.lock(); eng.commit_inner(t); }",
            ),
            file(
                "crates/core/src/engine.rs",
                "fn commit_inner(&self) { self.append_rec(x); }\n\
                 fn append_rec(&self) { let g = self.wal_state.lock(); }",
            ),
        ];
        let fns = extract(&files);
        let cg = CallGraph::build(fns);
        let deps = DepMap::from_edges(&[("server", "core")]);
        let resolved = cg.resolve_all(&deps);
        let ma = cg.may_acquire(&resolved);
        let commit = cg.fns.iter().position(|f| f.name == "commit").unwrap();
        assert!(ma[commit].contains("server.engine"));
        assert!(ma[commit].contains("core.wal_state"), "transitive acquire visible");
    }

    #[test]
    fn workspace_fn_named_flush_is_a_call_not_a_sink() {
        let files = vec![file(
            "crates/eos/src/global.rs",
            "fn flush(&self) { let b = self.batches.lock(); }\n\
                 fn tick(&self) { let g = self.snapshot.lock(); self.flush(); }",
        )];
        let fns = extract(&files);
        let cg = CallGraph::build(fns);
        let deps = DepMap::from_edges(&[]);
        let resolved = cg.resolve_all(&deps);
        let ms = cg.may_sink(&resolved);
        let tick = cg.fns.iter().position(|f| f.name == "tick").unwrap();
        assert!(ms[tick].is_empty(), "resolved flush is not an fsync sink");
    }

    #[test]
    fn closure_invoke_held_finds_higher_order_dispatch_point() {
        let files = vec![file(
            "crates/core/src/sharded/mod.rs",
            "fn on_shard(&self, f: F) { let mut engine = self.engine.lock(); f(engine); }",
        )];
        let fns = extract(&files);
        let cg = CallGraph::build(fns);
        let deps = DepMap::from_edges(&[]);
        let resolved = cg.resolve_all(&deps);
        let held = cg.closure_invoke_held(0, &resolved);
        assert!(held.contains("core.engine"));
    }

    #[test]
    fn dep_map_parses_path_deps_transitively() {
        let dirs = parse_dep_dirs(
            "[package]\nname = \"rh-server\"\n[dependencies]\nrh-core = { path = \"../core\" }\n\
             parking_lot = { path = \"../compat/parking_lot\" }\n[dev-dependencies]\n\
             rh-client = { path = \"../client\" }\n",
            &HashMap::new(),
        );
        assert!(dirs.contains("core"));
        assert!(dirs.contains("parking_lot"));
        assert!(dirs.contains("client"));
        let deps = DepMap::from_edges(&[("server", "core"), ("core", "wal")]);
        assert!(deps.can_call("server", "wal"), "transitive closure");
        assert!(!deps.can_call("wal", "server"), "direction enforced");
    }

    #[test]
    fn dep_map_resolves_workspace_inherited_deps() {
        let table = parse_workspace_dep_table(
            "[workspace]\nmembers = [\"crates/wal\"]\n[workspace.dependencies]\n\
             rh-wal = { path = \"crates/wal\" }\n\
             parking_lot = { path = \"crates/compat/parking_lot\" }\n\
             [profile.release]\ndebug = true\n",
        );
        assert_eq!(table.get("rh-wal").map(String::as_str), Some("wal"));
        assert_eq!(table.get("parking_lot").map(String::as_str), Some("parking_lot"));
        let dirs = parse_dep_dirs(
            "[package]\nname = \"rh-core\"\nversion.workspace = true\n[dependencies]\n\
             rh-wal.workspace = true\nparking_lot = { workspace = true }\n",
            &table,
        );
        assert!(dirs.contains("wal"), "dotted workspace form: {dirs:?}");
        assert!(dirs.contains("parking_lot"), "inline workspace form: {dirs:?}");
        assert!(!dirs.contains("version"), "[package] keys are not deps");
    }
}
