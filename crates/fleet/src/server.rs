//! TCP front-end for the discovery registry: [`RegistryService`] is a
//! [`LineService`] served by `nvc_serve::serve_lines`, the same
//! event-driven line server the hub runs behind, with the same
//! backpressure, line limit and connection gauges. The protocol is the
//! stack-wide one-JSON-object-per-line dialect; see the crate docs for
//! the verb set.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nvc_obs::{Counter, MetricsRegistry};
use nvc_serve::json::obj;
use nvc_serve::{serve_lines, Json, LineServer, LineServerConfig, LineService};

use crate::registry::{NodeAnnouncement, RegistryCore};

/// Protocol state for one registry process: the node table plus the
/// daemon plumbing (uptime, request counting, shutdown flag).
pub struct RegistryService {
    core: RegistryCore,
    started: Instant,
    shutting_down: AtomicBool,
    requests: Arc<Counter>,
}

impl Default for RegistryService {
    fn default() -> Self {
        let core = RegistryCore::default();
        let requests = core.metrics_registry().counter("registry_requests_total");
        RegistryService {
            core,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            requests,
        }
    }
}

impl RegistryService {
    /// The node table (tests drive it directly with explicit clocks).
    pub fn core(&self) -> &RegistryCore {
        &self.core
    }

    /// True once a `shutdown` verb has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Flags shutdown (the line server polls this).
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
    }

    /// Answers one protocol line. Returns the response and whether the
    /// connection should stay open (`false` after `shutdown`).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        self.requests.inc();
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return (err_response(&format!("bad json: {e}")), true),
        };
        let op = v.get("op").and_then(Json::as_str).unwrap_or("");
        match op {
            "announce" => match NodeAnnouncement::from_json(&v) {
                Ok(ann) => {
                    let nodes = self.core.announce(ann);
                    (
                        obj(vec![
                            ("ok", Json::from(true)),
                            ("nodes", Json::from(nodes as u64)),
                        ])
                        .render(),
                        true,
                    )
                }
                Err(e) => (err_response(&e), true),
            },
            "resolve" => {
                let model = v.get("model").and_then(Json::as_str);
                let nodes = self.core.resolve(model);
                (
                    obj(vec![
                        ("ok", Json::from(true)),
                        (
                            "nodes",
                            Json::Arr(nodes.iter().map(|n| n.to_json()).collect()),
                        ),
                    ])
                    .render(),
                    true,
                )
            }
            "nodes" | "stats" => {
                let nodes = self.core.resolve(None);
                (
                    obj(vec![
                        ("ok", Json::from(true)),
                        ("uptime_secs", Json::from(self.started.elapsed().as_secs())),
                        ("live_nodes", Json::from(nodes.len() as u64)),
                        (
                            "nodes",
                            Json::Arr(nodes.iter().map(|n| n.to_json()).collect()),
                        ),
                    ])
                    .render(),
                    true,
                )
            }
            "ping" => (
                obj(vec![
                    ("ok", Json::from(true)),
                    ("pong", Json::from(true)),
                    ("service", Json::from("nvc-registry")),
                ])
                .render(),
                true,
            ),
            "metrics" => (
                obj(vec![
                    ("ok", Json::from(true)),
                    (
                        "metrics",
                        Json::parse(&self.core.metrics_registry().render_json())
                            .unwrap_or(Json::Null),
                    ),
                ])
                .render(),
                true,
            ),
            "shutdown" => {
                // Ack first; the caller closes after writing (mirrors
                // the hub's ack-then-drain contract).
                self.shutdown();
                (
                    obj(vec![
                        ("ok", Json::from(true)),
                        ("shutdown", Json::from(true)),
                    ])
                    .render(),
                    false,
                )
            }
            other => (err_response(&format!("unknown op `{other}`")), true),
        }
    }

    /// The service's instruments.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        self.core.metrics_registry()
    }
}

fn err_response(msg: &str) -> String {
    obj(vec![("ok", Json::from(false)), ("error", Json::from(msg))]).render()
}

impl LineService for RegistryService {
    fn handle_line(&self, line: &str) -> (String, bool) {
        RegistryService::handle_line(self, line)
    }

    fn is_shutting_down(&self) -> bool {
        RegistryService::is_shutting_down(self)
    }

    fn shutdown(&self) {
        RegistryService::shutdown(self);
    }
}

/// Request workers: registry verbs are table lookups, never blocking.
const REGISTRY_WORKERS: usize = 2;

/// Per-connection unsent-output bound; a `resolve` answer is a few KiB.
const REGISTRY_MAX_OUTPUT: usize = 256 * 1024;

/// A running registry server. Dropping the handle shuts it down and
/// joins every thread.
pub struct RegistryHandle {
    service: Arc<RegistryService>,
    addr: SocketAddr,
    server: LineServer,
}

/// Binds `listen` and starts the registry.
///
/// # Errors
///
/// Returns the bind error (address in use, bad syntax, …).
pub fn serve_registry(
    service: Arc<RegistryService>,
    listen: &str,
) -> std::io::Result<RegistryHandle> {
    let listener = TcpListener::bind(listen)?;
    serve_registry_on(service, listener)
}

/// Starts the registry on an already-bound listener (tests bind port 0
/// and read the ephemeral address back).
///
/// # Errors
///
/// Returns an error when the listener cannot report its local address
/// or switch to nonblocking mode.
pub fn serve_registry_on(
    service: Arc<RegistryService>,
    listener: TcpListener,
) -> std::io::Result<RegistryHandle> {
    let addr = listener.local_addr()?;
    let obs = service.metrics_registry();
    let cfg = LineServerConfig {
        name: "nvc-registry",
        workers: REGISTRY_WORKERS,
        max_output_buffer: REGISTRY_MAX_OUTPUT,
        connections: obs.counter("registry_connections_total"),
        active_connections: obs.gauge("registry_active_connections"),
    };
    let server = serve_lines(Arc::clone(&service), listener, cfg)?;
    Ok(RegistryHandle {
        service,
        addr,
        server,
    })
}

impl RegistryHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service being served.
    pub fn service(&self) -> &Arc<RegistryService> {
        &self.service
    }

    /// Stops accepting, closes connections, joins every thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.service.shutdown();
        self.server.join();
    }
}

impl Drop for RegistryHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelAd;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn start() -> RegistryHandle {
        serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").expect("bind loopback")
    }

    fn roundtrip(addr: SocketAddr, line: &str) -> Json {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        Json::parse(response.trim()).expect("parse response")
    }

    fn announcement(node: &str, ttl_ms: u64) -> NodeAnnouncement {
        NodeAnnouncement {
            node: node.to_string(),
            addr: format!("127.0.0.1:9{node}"),
            models: vec![ModelAd {
                model: "prod".into(),
                checkpoint_hash: 0x1234,
                weight: 1,
            }],
            ttl_ms,
        }
    }

    #[test]
    fn malformed_ttl_announce_gets_an_error_response() {
        let handle = start();
        let body = announcement("bad", 60_000)
            .to_json()
            .render()
            .replace("\"ttl_ms\":60000", "\"ttl_ms\":-5");
        let resp = roundtrip(handle.addr(), &body);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("ttl_ms"));
        // The malformed node must not have been registered.
        let nodes = roundtrip(handle.addr(), "{\"op\":\"resolve\"}");
        assert_eq!(nodes.get("nodes").unwrap().as_array().unwrap().len(), 0);
        handle.shutdown();
    }

    #[test]
    fn announce_then_resolve_over_tcp() {
        let handle = start();
        let ack = roundtrip(
            handle.addr(),
            &announcement("n1", 60_000).to_json().render(),
        );
        assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(ack.get("nodes").unwrap().as_f64(), Some(1.0));

        let v = roundtrip(handle.addr(), r#"{"op":"resolve","model":"prod"}"#);
        let nodes = v.get("nodes").unwrap().as_array().unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].get("node").unwrap().as_str(), Some("n1"));

        let v = roundtrip(handle.addr(), r#"{"op":"resolve","model":"ghost"}"#);
        assert!(v.get("nodes").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn ttl_expiry_over_tcp() {
        let handle = start();
        roundtrip(handle.addr(), &announcement("gone", 80).to_json().render());
        std::thread::sleep(Duration::from_millis(150));
        let v = roundtrip(handle.addr(), r#"{"op":"resolve"}"#);
        assert!(
            v.get("nodes").unwrap().as_array().unwrap().is_empty(),
            "expired announcement must not resolve"
        );
    }

    #[test]
    fn ping_stats_metrics_and_bad_input() {
        let handle = start();
        let v = roundtrip(handle.addr(), r#"{"op":"ping"}"#);
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("service").unwrap().as_str(), Some("nvc-registry"));

        roundtrip(
            handle.addr(),
            &announcement("n1", 60_000).to_json().render(),
        );
        let v = roundtrip(handle.addr(), r#"{"op":"stats"}"#);
        assert_eq!(v.get("live_nodes").unwrap().as_f64(), Some(1.0));

        let v = roundtrip(handle.addr(), r#"{"op":"metrics"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

        let v = roundtrip(handle.addr(), "not json at all");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let v = roundtrip(handle.addr(), r#"{"op":"warp"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let v = roundtrip(handle.addr(), r#"{"op":"announce"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn shutdown_verb_quiesces_the_registry() {
        let handle = start();
        let v = roundtrip(handle.addr(), r#"{"op":"shutdown"}"#);
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        handle.shutdown();
        assert!(handle.service().is_shutting_down());
        assert!(
            TcpStream::connect(handle.addr()).is_err() || {
                // The OS may still accept into the backlog briefly; a write
                // + read must fail or return nothing either way.
                let mut s = TcpStream::connect(handle.addr()).unwrap();
                s.write_all(b"{\"op\":\"ping\"}\n").ok();
                let mut r = BufReader::new(s);
                let mut line = String::new();
                r.read_line(&mut line).map(|n| n == 0).unwrap_or(true)
            }
        );
    }

    fn active_connections(addr: SocketAddr) -> f64 {
        let v = roundtrip(addr, r#"{"op":"metrics"}"#);
        v.get("metrics")
            .and_then(|m| m.get("gauges"))
            .and_then(|g| g.get("registry_active_connections"))
            .and_then(Json::as_f64)
            .expect("metrics carry registry_active_connections")
    }

    /// Sockets dropped without any protocol goodbye release the
    /// `registry_active_connections` gauge, as seen through `metrics`.
    #[test]
    fn abruptly_dropped_sockets_release_the_gauge() {
        let handle = start();
        let mut streams = Vec::new();
        for _ in 0..8 {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            // Prove the connection is fully established and registered.
            s.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            streams.push(s);
        }
        // The eight held open plus the one asking.
        assert_eq!(active_connections(handle.addr()), 9.0);
        drop(streams);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let active = active_connections(handle.addr());
            if active == 1.0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "gauge stuck at {active} after abrupt drops"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
