//! The live introspection server: a dependency-free, read-only,
//! bounded text/JSON endpoint over `std::net::TcpListener`.
//!
//! The server is **opt-in** (nothing listens unless the embedding engine
//! calls [`IntrospectionServer::bind`]), **read-only** (the handler is a
//! pure query closure — it can snapshot state but never mutate it), and
//! **bounded** (one request per connection, request line capped at
//! [`MAX_REQUEST_BYTES`], short read timeout, one service thread). It
//! speaks just enough HTTP/1.0 that `curl`, a browser, a Prometheus
//! scraper, and four lines of test code can all talk to it:
//!
//! ```text
//! GET /stats            -> the unified counter/histogram registry
//! GET /trace            -> the bounded trace ring
//! GET /metrics          -> Prometheus text exposition (0.0.4)
//! GET /timeseries       -> the bounded time-series ring
//! GET /slowops          -> the slow-op log
//! GET /provenance       -> every object's responsibility chain
//! GET /provenance/<ob>  -> one object's chain
//! GET /postmortem       -> the predecessor's black-box diff, if any
//! ```
//!
//! This crate only provides the transport; the path-to-response mapping
//! is the embedder's [`Handler`] closure (the engine crate wires the
//! routes above), keeping `rh-obs` free of any dependency on engine
//! types. The embedder also passes its endpoint list at bind time so the
//! 404 body can enumerate what actually exists, not a hardcoded guess.
//! Every response — including errors — carries `Content-Type` and
//! `Content-Length`, so scrapers never depend on connection-close
//! framing.

use crate::json::JsonValue;
use crate::net::TcpService;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Hard cap on the bytes read from one request (the request line is all
/// the server looks at; anything longer is rejected).
pub const MAX_REQUEST_BYTES: usize = 4096;

/// What a [`Handler`] answers: JSON (the default for every structured
/// route) or plain text with an explicit content type (`/metrics` uses
/// the Prometheus exposition type).
#[derive(Debug, Clone, PartialEq)]
pub enum HttpResponse {
    /// A JSON body, served as `application/json`.
    Json(JsonValue),
    /// A raw text body with its content type.
    Text {
        /// The `Content-Type` header value.
        content_type: &'static str,
        /// The body.
        body: String,
    },
    /// The path matched a known route shape but a segment was malformed
    /// (e.g. a non-numeric object id or LSN): served as `400 Bad
    /// Request` with a JSON error body — distinct from the `None` → 404
    /// case, which means "no such route at all".
    BadRequest(JsonValue),
}

impl HttpResponse {
    /// A standard 400 body: `{error: <msg>}`.
    pub fn bad_request(msg: impl Into<String>) -> HttpResponse {
        HttpResponse::BadRequest(JsonValue::obj(vec![("error", JsonValue::Str(msg.into()))]))
    }
}

/// The `Content-Type` `/metrics` responses should use (Prometheus text
/// exposition format 0.0.4).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Maps a request path (e.g. `/stats`) to a response; `None` means 404.
/// Runs on the service thread, so it must be `Send + Sync` and should
/// only snapshot shared state.
pub type Handler = Arc<dyn Fn(&str) -> Option<HttpResponse> + Send + Sync>;

/// A running introspection endpoint. Dropping it (or calling
/// [`IntrospectionServer::shutdown`]) stops the service thread.
///
/// The accept loop is the shared [`crate::net::TcpService`]; each
/// connection is answered inline on the accept thread (one request per
/// connection, bounded read, short timeout), so a misbehaving client can
/// only cost one bounded exchange.
#[derive(Debug)]
pub struct IntrospectionServer {
    service: TcpService,
}

impl IntrospectionServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `handler` on a single background thread.
    /// `endpoints` is the embedder's route list, echoed in 404 bodies.
    pub fn bind(addr: &str, endpoints: &[&str], handler: Handler) -> std::io::Result<Self> {
        let endpoints: Vec<String> = endpoints.iter().map(|e| (*e).to_string()).collect();
        let service = TcpService::bind(
            addr,
            "rh-obs-serve",
            Box::new(move |stream| {
                // Best-effort per connection: a misbehaving client can
                // only cost this one bounded exchange.
                let _ = handle_connection(stream, &endpoints, &handler);
            }),
        )?;
        Ok(IntrospectionServer { service })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.service.local_addr()
    }

    /// Stops the service thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.service.shutdown();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    endpoints: &[String],
    handler: &Handler,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;

    let mut buf = [0u8; MAX_REQUEST_BYTES];
    let mut used = 0usize;
    // Read until the request line is complete (or the cap is hit —
    // everything past the first line is ignored anyway).
    while used < buf.len() && !buf[..used].contains(&b'\n') {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => used += n,
            Err(_) => break,
        }
    }
    let line = match std::str::from_utf8(&buf[..used]) {
        Ok(s) => s.lines().next().unwrap_or(""),
        Err(_) => "",
    };

    let response = route(line, endpoints, handler);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Parses `GET <path> ...` and produces the full HTTP response text.
fn route(request_line: &str, endpoints: &[String], handler: &Handler) -> String {
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" || !path.starts_with('/') {
        return respond_json(
            "400 Bad Request",
            &JsonValue::obj(vec![("error", JsonValue::Str("expected: GET /<path>".into()))]),
        );
    }
    // Strip any query string; the protocol has none.
    let path = path.split('?').next().unwrap_or(path);
    match handler(path) {
        Some(HttpResponse::Json(body)) => respond_json("200 OK", &body),
        Some(HttpResponse::Text { content_type, body }) => respond("200 OK", content_type, &body),
        Some(HttpResponse::BadRequest(body)) => respond_json("400 Bad Request", &body),
        None => respond_json(
            "404 Not Found",
            &JsonValue::obj(vec![
                ("error", JsonValue::Str(format!("unknown path {path}"))),
                (
                    "paths",
                    JsonValue::Arr(endpoints.iter().map(|p| JsonValue::Str(p.clone())).collect()),
                ),
            ]),
        ),
    }
}

fn respond_json(status: &str, body: &JsonValue) -> String {
    respond(status, "application/json", &body.render_pretty())
}

fn respond(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(addr: SocketAddr, line: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(line.as_bytes()).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("receive");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    fn test_handler() -> Handler {
        Arc::new(|path: &str| match path {
            "/stats" => {
                Some(HttpResponse::Json(JsonValue::obj(vec![("ok", JsonValue::Bool(true))])))
            }
            "/metrics" => Some(HttpResponse::Text {
                content_type: PROMETHEUS_CONTENT_TYPE,
                body: "# TYPE rh_up gauge\nrh_up 1\n".to_string(),
            }),
            p if p.starts_with("/provenance/") => {
                match p.trim_start_matches("/provenance/").parse::<u64>() {
                    Ok(ob) => {
                        Some(HttpResponse::Json(JsonValue::obj(vec![("ob", JsonValue::U64(ob))])))
                    }
                    Err(_) => Some(HttpResponse::bad_request("object id must be numeric")),
                }
            }
            _ => None,
        })
    }

    fn bind_test() -> IntrospectionServer {
        IntrospectionServer::bind("127.0.0.1:0", &["/stats", "/metrics"], test_handler())
            .expect("bind")
    }

    #[test]
    fn serves_known_paths_as_json() {
        let server = bind_test();
        let (head, body) = request(server.local_addr(), "GET /stats HTTP/1.0\r\n\r\n");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(head.contains("Content-Type: application/json"), "head: {head}");
        let parsed = crate::json::parse(&body).expect("json body");
        assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn text_routes_carry_their_content_type_and_length() {
        let server = bind_test();
        let (head, body) = request(server.local_addr(), "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"), "head: {head}");
        assert!(head.contains(&format!("Content-Length: {}", body.len())), "head: {head}");
        assert_eq!(body, "# TYPE rh_up gauge\nrh_up 1\n");
    }

    #[test]
    fn parameterized_path_and_query_strings() {
        let server = bind_test();
        let (_, body) = request(server.local_addr(), "GET /provenance/42?x=1 HTTP/1.0\r\n\r\n");
        let parsed = crate::json::parse(&body).expect("json body");
        assert_eq!(parsed.get("ob").and_then(JsonValue::as_u64), Some(42));
    }

    #[test]
    fn unknown_path_404_lists_the_bound_endpoints() {
        let server = bind_test();
        let (head, body) = request(server.local_addr(), "GET /nope HTTP/1.0\r\n\r\n");
        assert!(head.starts_with("HTTP/1.0 404"), "head: {head}");
        assert!(head.contains("Content-Length:"), "head: {head}");
        let paths = crate::json::parse(&body)
            .expect("json")
            .get("paths")
            .and_then(JsonValue::as_arr)
            .map(<[_]>::to_vec)
            .expect("paths array");
        let listed: Vec<&str> = paths.iter().filter_map(JsonValue::as_str).collect();
        assert_eq!(listed, vec!["/stats", "/metrics"]);
        let (head, _) = request(server.local_addr(), "POST /stats HTTP/1.0\r\n\r\n");
        assert!(head.starts_with("HTTP/1.0 400"), "head: {head}");
    }

    #[test]
    fn malformed_path_segment_is_400_with_json_error_not_404() {
        let server = bind_test();
        let (head, body) =
            request(server.local_addr(), "GET /provenance/notanumber HTTP/1.0\r\n\r\n");
        assert!(head.starts_with("HTTP/1.0 400"), "head: {head}");
        assert!(head.contains("Content-Type: application/json"), "head: {head}");
        let err = crate::json::parse(&body)
            .expect("json body")
            .get("error")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .expect("error field");
        assert!(err.contains("numeric"), "error: {err}");
        // A 400 is a route-shape match: it must not carry the 404 paths list.
        assert!(crate::json::parse(&body).unwrap().get("paths").is_none());
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let mut server = bind_test();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        // Port is released: a fresh bind on the same address succeeds.
        let _rebound = std::net::TcpListener::bind(addr).expect("rebind after shutdown");
    }
}
