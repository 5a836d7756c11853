//! A dependency-free HTTP/1.1 stats server over `std::net`.
//!
//! [`StatsServer`] binds a `TcpListener` and serves read-only
//! endpoints from a [`StatsSource`]:
//!
//! * `GET /metrics` — Prometheus text exposition (v0.0.4),
//! * `GET /stats.json` — the [`super::RuntimeStats`] JSON snapshot,
//! * `GET /traces` — retained flight-recorder traces as JSON,
//! * `GET /query-log` — retained wide-event query-log records as
//!   newline-delimited JSON,
//! * `GET /profile?seconds=N` — a folded-stack (flamegraph-ready)
//!   thread-state profile captured over the next `N` seconds (default
//!   2, clamped to 0.1–30, non-finite rejected). The capture sleeps
//!   for its whole window, so it is handed to a short-lived spawned
//!   thread instead of blocking the serial scrape loop — a 30s
//!   capture must not black out `/healthz`/`/readyz` past a probe
//!   failure window. One capture runs at a time; a concurrent second
//!   request gets `429`,
//! * `GET /healthz` / `GET /readyz` — liveness and readiness probes
//!   (`200` / `503 unavailable`), with the body carrying the SLO
//!   burn-rate health state (`ok` / `degraded`).
//!
//! One accept-loop thread handles connections serially with
//! `Connection: close` semantics — this is an operator scrape surface
//! (one curl or one Prometheus scrape at a time), not a serving path,
//! so throughput is deliberately traded for zero dependencies and zero
//! interaction with the query hot path.
//!
//! Shutdown rides the shared [`crate::net::lifecycle`] path (the same
//! one the query listener uses): the loop waits for the listener in
//! the same [`Poller`] and `stop()` is flag, wake and join, with no
//! self-connect hack and no leaked listener thread.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::net::lifecycle::{ListenerHandle, MAX_PARK};
use crate::net::poll::Poller;

/// What the endpoints serve. Implemented by the CLI over a running
/// [`crate::runtime::AlgasServer`]; snapshots are taken per request.
pub trait StatsSource: Send + Sync {
    /// The `/metrics` body (Prometheus text exposition format).
    fn metrics_text(&self) -> String;
    /// The `/stats.json` body.
    fn stats_json(&self) -> String;
    /// The `/traces` body.
    fn traces_json(&self) -> String;
    /// The `/query-log` lines (one JSON record per line). Default:
    /// empty — sources without a query log serve an empty body.
    fn query_log_lines(&self) -> Vec<String> {
        Vec::new()
    }
    /// The `/profile` body: a folded-stack thread-state profile
    /// captured (blocking) over `seconds`. Default: empty — sources
    /// without a profiler serve an empty body.
    fn profile_folded(&self, _seconds: f64) -> String {
        String::new()
    }
    /// Burn-rate health detail reported in the probe bodies:
    /// `"ok"` or `"degraded"`. Default `"ok"` — sources without
    /// windowed telemetry are never degraded.
    fn health_state(&self) -> String {
        "ok".to_string()
    }
    /// Liveness: the process is up and the scrape surface responds.
    /// Default `true` — reaching the handler at all is the signal.
    fn healthz(&self) -> bool {
        true
    }
    /// Readiness: the index is loaded and queries are being accepted.
    /// Default `true`; the runtime overrides this with its real state.
    fn readyz(&self) -> bool {
        true
    }
}

/// A running stats server; [`StatsServer::stop`] (or drop) shuts it
/// down.
pub struct StatsServer {
    handle: ListenerHandle,
}

impl StatsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9100`, port 0 for ephemeral) and
    /// starts the accept loop.
    ///
    /// # Errors
    /// Propagates bind failures (port in use, bad address).
    pub fn start(addr: impl ToSocketAddrs, source: Arc<dyn StatsSource>) -> std::io::Result<Self> {
        let handle =
            ListenerHandle::spawn("algas-stats-http", addr, move |listener, stop, poller| {
                accept_loop(&listener, stop, poller, &source);
            })?;
        Ok(Self { handle })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Stops the accept loop and joins its thread (flag + wake + join
    /// via the shared listener lifecycle — bounded by at most one
    /// in-progress scrape). An in-flight `/profile`
    /// capture runs on its own detached thread and is not joined; it
    /// finishes its sleep, writes to its (possibly dead) client, and
    /// exits.
    pub fn stop(self) {
        self.handle.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    poller: &mut Poller,
    source: &Arc<dyn StatsSource>,
) {
    // At most one /profile capture thread at a time; extras get 429.
    let profile_busy = Arc::new(AtomicBool::new(false));
    while !stop.load(Ordering::Acquire) {
        poller.clear();
        let key = poller.add(listener, true, false);
        poller.wait(MAX_PARK, || stop.load(Ordering::Acquire));
        if !poller.readable(key) {
            continue;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Scrapes are served blocking, one at a time; a
                // stalled client must not wedge the scrape surface.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                let _ = handle(stream, source, &profile_busy);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            // Failing hard (descriptor exhaustion): the listener stays
            // readable, so back off instead of spinning on it.
            Err(_) => std::thread::sleep(MAX_PARK),
        }
    }
}

fn probe(up: bool, state: String) -> (&'static str, &'static str, String) {
    if up {
        ("200 OK", "text/plain; charset=utf-8", state + "\n")
    } else {
        ("503 Service Unavailable", "text/plain; charset=utf-8", "unavailable\n".to_string())
    }
}

fn handle(
    mut stream: TcpStream,
    source: &Arc<dyn StatsSource>,
    profile_busy: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    // Read until the end of the request head (no bodies on GETs; a
    // small fixed cap bounds a misbehaving client).
    let mut buf = [0u8; 4096];
    let mut len = 0;
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let raw_path = parts.next().unwrap_or("");
    let (path, query) = raw_path.split_once('?').unwrap_or((raw_path, ""));
    if method == "GET" && path == "/profile" {
        // The capture sleeps for its whole window (up to 30s); served
        // inline it would starve /healthz and /readyz past typical
        // probe failure windows and stretch StatsServer::stop() by the
        // same amount. Hand the stream to a short-lived thread and
        // keep the serial loop free. `filter(is_finite)` keeps
        // `?seconds=nan` (which Duration::from_secs_f64 panics on
        // downstream) and `inf` on the 2s default.
        let seconds = query
            .split('&')
            .find_map(|kv| kv.strip_prefix("seconds="))
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|s| s.is_finite())
            .unwrap_or(2.0);
        if profile_busy.swap(true, Ordering::AcqRel) {
            return respond(
                &mut stream,
                "429 Too Many Requests",
                "text/plain; charset=utf-8",
                "a profile capture is already in progress\n",
            );
        }
        let source = Arc::clone(source);
        let busy = Arc::clone(profile_busy);
        let spawned =
            std::thread::Builder::new().name("algas-profile".to_string()).spawn(move || {
                let body = source.profile_folded(seconds);
                let _ = respond(&mut stream, "200 OK", "text/plain; charset=utf-8", &body);
                busy.store(false, Ordering::Release);
            });
        return match spawned {
            Ok(_) => Ok(()),
            Err(e) => {
                profile_busy.store(false, Ordering::Release);
                Err(e)
            }
        };
    }
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => {
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", source.metrics_text())
            }
            "/stats.json" => ("200 OK", "application/json", source.stats_json()),
            "/traces" => ("200 OK", "application/json", source.traces_json()),
            "/query-log" => {
                let lines = source.query_log_lines();
                let mut body = String::new();
                for line in &lines {
                    body.push_str(line);
                    body.push('\n');
                }
                ("200 OK", "application/x-ndjson", body)
            }
            "/healthz" => probe(source.healthz(), source.health_state()),
            "/readyz" => probe(source.readyz(), source.health_state()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics, /stats.json, /traces, /query-log, /profile, /healthz, \
                 /readyz\n"
                    .to_string(),
            ),
        }
    };
    respond(&mut stream, status, content_type, &body)
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedSource;

    impl StatsSource for FixedSource {
        fn metrics_text(&self) -> String {
            "# TYPE algas_up gauge\nalgas_up 1\n".to_string()
        }

        fn stats_json(&self) -> String {
            "{\"ok\":true}".to_string()
        }

        fn traces_json(&self) -> String {
            "{\"traces\":[]}".to_string()
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_three_endpoints() {
        let server = StatsServer::start("127.0.0.1:0", Arc::new(FixedSource)).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("algas_up 1"));

        let (head, body) = get(addr, "/stats.json");
        assert!(head.contains("application/json"));
        assert_eq!(body, "{\"ok\":true}");

        let (_, body) = get(addr, "/traces");
        assert_eq!(body, "{\"traces\":[]}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.stop();
    }

    #[test]
    fn serves_query_log_and_probes() {
        // FixedSource takes the trait defaults: empty log, both probes
        // up.
        let server = StatsServer::start("127.0.0.1:0", Arc::new(FixedSource)).unwrap();
        let addr = server.local_addr();
        let (head, body) = get(addr, "/query-log");
        assert!(head.contains("application/x-ndjson"), "{head}");
        assert_eq!(body, "");
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, _) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.stop();

        struct Draining;
        impl StatsSource for Draining {
            fn metrics_text(&self) -> String {
                String::new()
            }
            fn stats_json(&self) -> String {
                String::new()
            }
            fn traces_json(&self) -> String {
                String::new()
            }
            fn query_log_lines(&self) -> Vec<String> {
                vec!["{\"request_id\":1}".to_string(), "{\"request_id\":2}".to_string()]
            }
            fn readyz(&self) -> bool {
                false
            }
        }
        let server = StatsServer::start("127.0.0.1:0", Arc::new(Draining)).unwrap();
        let addr = server.local_addr();
        let (_, body) = get(addr, "/query-log");
        assert_eq!(body, "{\"request_id\":1}\n{\"request_id\":2}\n");
        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(body, "unavailable\n");
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "draining is alive, not ready: {head}");
        server.stop();
    }

    #[test]
    fn serves_profile_and_degraded_health() {
        // A source with a profiler and a burning SLO: /profile echoes
        // the requested capture window back as folded text, and both
        // probes carry the degraded state (healthz stays 200 — the
        // process is alive, just missing its SLO).
        struct Burning;
        impl StatsSource for Burning {
            fn metrics_text(&self) -> String {
                String::new()
            }
            fn stats_json(&self) -> String {
                String::new()
            }
            fn traces_json(&self) -> String {
                String::new()
            }
            fn profile_folded(&self, seconds: f64) -> String {
                format!("worker;worker-0;scan {}\n", (seconds * 10.0) as u64)
            }
            fn health_state(&self) -> String {
                "degraded".to_string()
            }
        }
        let server = StatsServer::start("127.0.0.1:0", Arc::new(Burning)).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/profile?seconds=0.5");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert_eq!(body, "worker;worker-0;scan 5\n");
        // No query string: the default 2-second capture applies.
        let (_, body) = get(addr, "/profile");
        assert_eq!(body, "worker;worker-0;scan 20\n");
        // A malformed seconds= also falls back to the default.
        let (_, body) = get(addr, "/profile?seconds=bogus");
        assert_eq!(body, "worker;worker-0;scan 20\n");
        // Non-finite values parse as f64 but are filtered to the
        // default instead of reaching Duration::from_secs_f64 (which
        // panics on NaN) — and the server keeps serving afterwards.
        let (head, body) = get(addr, "/profile?seconds=nan");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "worker;worker-0;scan 20\n");
        let (_, body) = get(addr, "/profile?seconds=inf");
        assert_eq!(body, "worker;worker-0;scan 20\n");
        let (_, body) = get(addr, "/profile?seconds=-inf");
        assert_eq!(body, "worker;worker-0;scan 20\n");
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "alive after nan scrape: {head}");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "degraded\n");
        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "degraded\n");
        server.stop();

        // The default profile body is empty (no profiler attached).
        let server = StatsServer::start("127.0.0.1:0", Arc::new(FixedSource)).unwrap();
        let (head, body) = get(server.local_addr(), "/profile");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "");
        server.stop();
    }

    #[test]
    fn profile_capture_does_not_block_probes() {
        // A capture that sleeps must leave /healthz responsive (it runs
        // on its own thread), and a second concurrent capture is
        // refused with 429 rather than queued behind the first.
        struct Slow;
        impl StatsSource for Slow {
            fn metrics_text(&self) -> String {
                String::new()
            }
            fn stats_json(&self) -> String {
                String::new()
            }
            fn traces_json(&self) -> String {
                String::new()
            }
            fn profile_folded(&self, _seconds: f64) -> String {
                std::thread::sleep(Duration::from_millis(1_500));
                "worker;w;scan 1\n".to_string()
            }
        }
        let server = StatsServer::start("127.0.0.1:0", Arc::new(Slow)).unwrap();
        let addr = server.local_addr();
        let capture = std::thread::spawn(move || get(addr, "/profile?seconds=0.1"));
        // Let the capture thread reach its sleep before probing.
        std::thread::sleep(Duration::from_millis(300));
        let start = std::time::Instant::now();
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            start.elapsed() < Duration::from_millis(1_000),
            "probe answered while the capture was still sleeping"
        );
        let (head, _) = get(addr, "/profile");
        assert!(head.starts_with("HTTP/1.1 429"), "concurrent capture refused: {head}");
        let (head, body) = capture.join().unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "worker;w;scan 1\n");
        server.stop();
    }

    #[test]
    fn rejects_non_get_and_strips_query_strings() {
        let server = StatsServer::start("127.0.0.1:0", Arc::new(FixedSource)).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");

        let (head, _) = get(addr, "/metrics?foo=bar");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        server.stop();
    }

    #[test]
    fn stop_joins_cleanly_and_drop_is_idempotent() {
        let server = StatsServer::start("127.0.0.1:0", Arc::new(FixedSource)).unwrap();
        let addr = server.local_addr();
        server.stop();
        // The port is released: a fresh server can bind it (racy on a
        // busy machine, so only assert the old one stopped serving).
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn start_stop_twice_on_same_port() {
        // The unified lifecycle releases the port synchronously on
        // stop: a second server can bind the exact same port and
        // serve, and no listener thread leaks from the first.
        let first = StatsServer::start("127.0.0.1:0", Arc::new(FixedSource)).unwrap();
        let addr = first.local_addr();
        let (head, _) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        first.stop();

        let second = StatsServer::start(addr, Arc::new(FixedSource)).unwrap();
        assert_eq!(second.local_addr(), addr);
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("algas_up 1"));
        second.stop();
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }
}
