//! Shared TCP listener plumbing.
//!
//! Two services in this workspace accept TCP connections: the read-only
//! introspection endpoint ([`crate::serve::IntrospectionServer`]) and the
//! transaction front-end (`rh-server`). Both need the same boring —
//! and easy to get subtly wrong — accept-loop skeleton: bind, accept
//! on a named background thread, and stop cleanly on a shared flag.
//! The accept blocks, so a new connection is handed over the moment it
//! arrives; shutdown sets the flag and then wakes the loop with a
//! connection of its own. [`TcpService`] is that skeleton, extracted so
//! there is exactly one of it.
//!
//! The service owns *only* the accept loop. What happens to an accepted
//! stream is the embedder's `on_conn` callback: the introspection server
//! answers one bounded request inline; the transaction server registers
//! a session and spawns handler threads. Either way, a panic-free
//! callback is the embedder's responsibility — the loop itself never
//! panics.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop backs off after a failed accept (out of
/// file descriptors, say), so a persistent error does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Callback invoked (on the accept thread) for every accepted stream.
pub type OnConn = Box<dyn Fn(TcpStream) + Send + 'static>;

/// A background accept loop over one bound [`TcpListener`].
///
/// Dropping the service (or calling [`TcpService::shutdown`]) stops the
/// loop and joins the thread. Streams already handed to `on_conn` are
/// not affected — connection lifetime is the embedder's concern.
#[derive(Debug)]
pub struct TcpService {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TcpService {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting on a background thread named `name`. Every
    /// accepted stream is passed to `on_conn`.
    pub fn bind(addr: &str, name: &str, on_conn: OnConn) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || accept_loop(listener, on_conn, stop_flag))?;
        Ok(TcpService { addr: local, stop, thread: Some(thread) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once [`TcpService::shutdown`] has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept thread. Idempotent; the
    /// bound port is free again when this returns.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            // Wake the blocked accept; the loop sees the flag and drops
            // this connection unserved. An unspecified bind address
            // (`0.0.0.0`, `::`) is reached through loopback.
            let mut wake = self.addr;
            match wake.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
                IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
                _ => {}
            }
            let _ = TcpStream::connect(wake);
            let _ = t.join();
        }
    }
}

impl Drop for TcpService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, on_conn: OnConn, stop: Arc<AtomicBool>) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => on_conn(stream),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn accepts_connections_and_runs_callback() {
        let hits = Arc::new(AtomicUsize::new(0));
        let hits_cb = Arc::clone(&hits);
        let service = TcpService::bind(
            "127.0.0.1:0",
            "test-accept",
            Box::new(move |mut s: TcpStream| {
                hits_cb.fetch_add(1, Ordering::SeqCst);
                let _ = s.write_all(b"hi");
            }),
        )
        .expect("bind");
        for _ in 0..3 {
            let mut c = TcpStream::connect(service.local_addr()).expect("connect");
            let mut buf = [0u8; 2];
            c.read_exact(&mut buf).expect("greeting");
            assert_eq!(&buf, b"hi");
        }
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_new_connection_is_served_without_waiting_for_a_poll() {
        let service = TcpService::bind(
            "127.0.0.1:0",
            "test-prompt",
            Box::new(|mut s: TcpStream| {
                let _ = s.write_all(b"!");
            }),
        )
        .expect("bind");
        let mut waits: Vec<Duration> = (0..20)
            .map(|_| {
                let sw = crate::Stopwatch::start();
                let mut c = TcpStream::connect(service.local_addr()).expect("connect");
                let mut buf = [0u8; 1];
                c.read_exact(&mut buf).expect("first byte");
                sw.elapsed()
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(median < Duration::from_millis(2), "median connect to first byte: {median:?}");
    }

    #[test]
    fn shutdown_wakes_a_listener_bound_to_the_unspecified_address() {
        let mut service =
            TcpService::bind("0.0.0.0:0", "test-any", Box::new(|_s| {})).expect("bind");
        service.shutdown();
        assert!(service.is_stopped());
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let mut service =
            TcpService::bind("127.0.0.1:0", "test-stop", Box::new(|_s| {})).expect("bind");
        let addr = service.local_addr();
        assert!(!service.is_stopped());
        service.shutdown();
        service.shutdown();
        assert!(service.is_stopped());
        let _rebound = TcpListener::bind(addr).expect("rebind after shutdown");
    }
}
