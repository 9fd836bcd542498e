//! Child-process and scratch-directory hygiene.
//!
//! Every `rh-serve` the benchmark starts is owned by a [`ServeChild`]
//! and every directory it writes by a [`Scratch`]; both clean up in
//! `Drop`, so an early return, a failed check or a panic that unwinds
//! still kills the server and removes its files. The child is also
//! told by the kernel to die with its parent, which covers the one case
//! `Drop` cannot: the harness itself being killed by a signal.

use rh_client::Connection;
use std::io::{BufRead, BufReader};
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its listening address.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A directory removed (with everything in it) when dropped.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `root/<pid>-<n>-<tag>`, first removing scratch
    /// directories under `root` whose owning process no longer exists
    /// (left behind by a harness that was killed).
    pub fn create(root: &Path, tag: &str) -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        reap_stale(root);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes the file system that holds the directory, so that writes
    /// and deletions made before (and the discards a deletion queues on a
    /// file system mounted with `discard`) are paid now, not inside the
    /// timed window that follows.
    pub fn settle(&self) -> Result<(), String> {
        settle(&self.path)
    }

    /// A fresh, empty subdirectory `name`.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    /// Removes the directory and flushes the removal, so the next run
    /// does not pay for this one's deletions.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(root) = self.path.parent() {
            let _ = settle(root);
        }
    }
}

/// `syncfs(2)` on the file system holding `dir`.
fn settle(dir: &Path) -> Result<(), String> {
    let f = std::fs::File::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    // SAFETY: `syncfs` only reads the descriptor, which `f` keeps open
    // for the duration of the call.
    if unsafe { syncfs(f.as_raw_fd()) } != 0 {
        return Err(format!("syncfs {}: {}", dir.display(), std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Removes `root/<pid>-*` entries whose pid is not a live process.
fn reap_stale(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pid) = name.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid != std::process::id() && !Path::new(&format!("/proc/{pid}")).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Copies a directory tree (regular files and directories only).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let target = to.join(entry.file_name());
        let kind = entry.file_type().map_err(|e| format!("stat: {e}"))?;
        if kind.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// The `rh-serve` binary built beside this harness: in the same
/// directory, or one up (where Cargo puts binaries when the running
/// executable is a test under `deps/`).
pub fn serve_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    me.ancestors()
        .skip(1)
        .take(2)
        .map(|d| d.join("rh-serve"))
        .find(|p| p.is_file())
        .ok_or_else(|| format!("rh-serve not found next to {}", me.display()))
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn syncfs(fd: i32) -> i32;
}

/// `PR_SET_PDEATHSIG` from `<linux/prctl.h>`.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL`.
const SIGKILL: u64 = 9;

/// One running `rh-serve`. Dropping it kills the process, waits for it
/// and joins the thread draining its stdout.
#[derive(Debug)]
pub struct ServeChild {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl ServeChild {
    /// Spawns `rh-serve --dir dir --addr 127.0.0.1:0 [--shards N]` and
    /// waits for the line announcing its address. The idle timeout is
    /// raised past any window, so the control connection, quiet while the
    /// load runs, is never closed under it. Must be called from
    /// the thread that outlives the child (the parent-death signal
    /// fires when the spawning thread exits).
    pub fn spawn(dir: &Path, shards: usize) -> Result<ServeChild, String> {
        let bin = serve_binary()?;
        let mut cmd = Command::new(bin);
        cmd.arg("--dir").arg(dir).args(["--addr", "127.0.0.1:0", "--idle-ms", "600000"]);
        if shards > 1 {
            cmd.args(["--shards", &shards.to_string()]);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
        // SAFETY: `prctl(PR_SET_PDEATHSIG, SIGKILL)` only sets a flag of
        // the calling (child) process; it allocates nothing and touches
        // no state shared with the parent, so it is async-signal-safe
        // between fork and exec.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn rh-serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // Keep reading after the address line, so the server never
        // blocks (or dies of EPIPE) printing to a full pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut me = ServeChild { child, addr: String::new(), drain: Some(drain) };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => me.addr = addr,
            Err(_) => return Err(format!("rh-serve on {} never became ready", dir.display())),
        }
        Ok(me)
    }

    /// The serving address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Opens a session, retrying through admission-control rejections.
    pub fn connect(&self) -> Result<Connection, String> {
        rh_client::load::connect_with_retry(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read status of rh-serve: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in rh-serve status".to_string())
    }

    /// Kills the server the way a crash would (SIGKILL) and reaps it.
    pub fn crash(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns a server on `dir` and times it until its first acknowledged
/// commit (a fresh object of the caller's choosing), returning the
/// serving child and the elapsed milliseconds: spawn → listening, plus
/// begin → commit ack of the first transaction. The connect between the
/// two is left out: the accept loop polls every 10 ms, so the first
/// connection waits 0–10 ms depending only on the poll's phase.
pub fn restart_until_first_ack(
    dir: &Path,
    shards: usize,
    probe: rh_common::ObjectId,
) -> Result<(ServeChild, f64), String> {
    let t0 = Instant::now();
    let child = ServeChild::spawn(dir, shards)?;
    let ready = t0.elapsed();
    let mut conn = child.connect()?;
    let t1 = Instant::now();
    let t = conn.begin().map_err(|e| format!("first begin: {e}"))?;
    conn.write(t, probe, 1).map_err(|e| format!("first write: {e}"))?;
    conn.commit(t).map_err(|e| format!("first commit: {e}"))?;
    Ok((child, (ready + t1.elapsed()).as_secs_f64() * 1e3))
}
