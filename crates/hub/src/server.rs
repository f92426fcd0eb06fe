//! The hub's TCP endpoint: [`Hub`] is a [`LineService`] served by
//! `nvc_serve::serve_lines` — one selector thread drives every
//! connection nonblocking and a pool of `request_threads` workers runs
//! [`Hub::handle_line`]. Idle connections cost zero CPU.
//!
//! A `shutdown` verb from *any* client quiesces the whole hub: the ack
//! is flushed first, then the acceptor stops, models drain, the cache
//! persists, and the remaining connections close.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nvc_serve::{serve_lines, LineServer, LineServerConfig, LineService};
use parking_lot::Mutex;

use crate::Hub;

impl LineService for Hub {
    fn handle_line(&self, line: &str) -> (String, bool) {
        Hub::handle_line(self, line)
    }

    fn is_shutting_down(&self) -> bool {
        Hub::is_shutting_down(self)
    }

    fn shutdown(&self) {
        Hub::shutdown(self);
    }
}

/// A running hub server. Dropping the handle shuts the hub down (drain
/// + persist) and joins every thread.
pub struct HubHandle {
    hub: Arc<Hub>,
    addr: SocketAddr,
    server: LineServer,
    /// The periodic cache checkpointer (crash-loss bound), when
    /// `cache_checkpoint_secs` and a cache path are both configured.
    checkpointer: Mutex<Option<JoinHandle<()>>>,
}

/// Spawns the background cache checkpointer when configured: every
/// `cache_checkpoint_secs` the full cache image is rewritten through
/// the same temp-file + rename path the shutdown persist uses, so a
/// crash (or [`HubHandle::abort`]) loses at most one interval of
/// decisions.
fn spawn_checkpointer(hub: &Arc<Hub>) -> Option<JoinHandle<()>> {
    let interval_secs = hub.config().cache_checkpoint_secs;
    if interval_secs == 0 || hub.config().cache_path.is_none() {
        return None;
    }
    let hub = Arc::clone(hub);
    let interval = Duration::from_secs(interval_secs);
    Some(
        std::thread::Builder::new()
            .name("nvc-hub-checkpoint".to_string())
            .spawn(move || loop {
                // Sleep in short steps so shutdown is noticed promptly.
                let mut remaining = interval;
                while !remaining.is_zero() {
                    if hub.is_shutting_down() {
                        return;
                    }
                    let step = remaining.min(Duration::from_millis(100));
                    std::thread::sleep(step);
                    remaining = remaining.saturating_sub(step);
                }
                if hub.is_shutting_down() {
                    return;
                }
                match hub.persist_cache() {
                    Ok(()) => hub.cache_checkpoints.inc(),
                    Err(e) => eprintln!("nvc hub: cache checkpoint failed (will retry): {e}"),
                }
            })
            .expect("spawn hub checkpoint thread"),
    )
}

/// Binds `hub.config().listen` and starts serving.
///
/// # Errors
///
/// Returns the bind error (address in use, bad address syntax, …).
pub fn serve_tcp(hub: Arc<Hub>) -> std::io::Result<HubHandle> {
    let listener = TcpListener::bind(&hub.config().listen)?;
    serve_on(hub, listener)
}

/// Starts serving on an already-bound listener (tests bind port 0 and
/// read the ephemeral address back).
///
/// # Errors
///
/// Returns an error when the listener cannot report its local address
/// or switch to nonblocking mode.
pub fn serve_on(hub: Arc<Hub>, listener: TcpListener) -> std::io::Result<HubHandle> {
    let addr = listener.local_addr()?;
    let server = serve_lines(
        Arc::clone(&hub),
        listener,
        LineServerConfig {
            name: "nvc-hub",
            workers: hub.config().request_threads,
            max_output_buffer: hub.config().max_output_buffer,
            connections: Arc::clone(&hub.connections),
            active_connections: Arc::clone(&hub.active_connections),
        },
    )?;
    let checkpointer = Mutex::new(spawn_checkpointer(&hub));
    Ok(HubHandle {
        hub,
        addr,
        server,
        checkpointer,
    })
}

impl HubHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub being served.
    pub fn hub(&self) -> &Arc<Hub> {
        &self.hub
    }

    /// Shuts the whole tier down: hub drain + cache persist, then joins
    /// every server thread. Idempotent.
    pub fn shutdown(&self) {
        self.hub.shutdown();
        self.join_threads();
    }

    /// Crash simulation ([`Hub::abort`] plus thread teardown): every
    /// loop exits but the final cache persist is *skipped* — only what
    /// the periodic checkpointer already wrote survives, exactly like a
    /// process kill. Resilience tests use this to measure crash loss.
    pub fn abort(&self) {
        self.hub.abort();
        self.join_threads();
    }

    fn join_threads(&self) {
        if let Some(ckpt) = self.checkpointer.lock().take() {
            let _ = ckpt.join();
        }
        self.server.join();
    }
}

impl Drop for HubHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{stub_spec, SRC};
    use crate::HubConfig;
    use nvc_serve::{Json, ServeConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn start(models: &[(&str, u32, usize)]) -> HubHandle {
        let cfg = HubConfig::default().with_listen("127.0.0.1:0");
        let hub = Hub::new(cfg, ServeConfig::default().with_workers(1));
        for &(name, weight, tag) in models {
            hub.register(stub_spec(name, weight, tag)).unwrap();
        }
        serve_tcp(Arc::new(hub)).expect("bind loopback")
    }

    /// One request/response over a fresh connection.
    fn roundtrip(addr: SocketAddr, line: &str) -> Json {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        Json::parse(response.trim()).expect("parse response")
    }

    #[test]
    fn tcp_ping_and_vectorize() {
        let handle = start(&[("m", 1, 0)]);
        let v = roundtrip(handle.addr(), r#"{"op":"ping"}"#);
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));

        let req = nvc_serve::json::obj(vec![("source", Json::from(SRC))]).render();
        let v = roundtrip(handle.addr(), &req);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("model").unwrap().as_str(), Some("m"));
        assert!(v
            .get("source")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("#pragma clang loop"));
    }

    #[test]
    fn shutdown_verb_quiesces_the_server() {
        let handle = start(&[("m", 1, 0)]);
        let v = roundtrip(handle.addr(), r#"{"op":"shutdown"}"#);
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        handle.shutdown();
        assert!(handle.hub().is_shutting_down());
    }

    /// Gossip transfer: a joining hub pulls a warm peer's cache image
    /// and serves the same sources as hits with bitwise-equal output.
    #[test]
    fn warm_from_peers_transfers_the_cache() {
        let warm = start(&[("m", 1, 7)]);
        let req = nvc_serve::json::obj(vec![("source", Json::from(SRC))]).render();
        let first = roundtrip(warm.addr(), &req);
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));

        // The export verb itself carries the section.
        let export = roundtrip(warm.addr(), r#"{"op":"cache_export"}"#);
        let sections = export.get("sections").unwrap().as_array().unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(
            sections[0].get("checkpoint_hash").unwrap().as_str(),
            Some("0000000000000007")
        );
        assert!(!sections[0]
            .get("entries")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        // A joining node with the same checkpoint absorbs it…
        let store = Arc::new(nvc_fleet::ContentStore::default());
        let joiner = Hub::new(
            HubConfig::default().with_listen("127.0.0.1:0"),
            ServeConfig::default().with_workers(1),
        )
        .with_shared_store(Arc::clone(&store));
        joiner.register(stub_spec("m", 1, 7)).unwrap();
        let n = joiner
            .warm_from_peers(&["127.0.0.1:1".to_string(), warm.addr().to_string()])
            .expect("dead first peer must fail over to the live one");
        assert!(n > 0, "transfer must absorb entries");
        assert!(store.len() > 0, "shared store holds the transfer");

        // …and serves the transferred decision as a hit, bitwise-equal.
        let (resp, _) = joiner.handle_line(&req);
        let v = Json::parse(&resp).unwrap();
        let loops = v.get("loops").unwrap().as_array().unwrap();
        assert_eq!(loops[0].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("source").unwrap().as_str(),
            first.get("source").unwrap().as_str(),
            "gossip-transferred decisions must be bitwise-equal"
        );

        // A hash-mismatched joiner keeps entries only in the shared
        // store (content-addressed), never in the model's own LRU.
        let mismatched = Hub::new(
            HubConfig::default().with_listen("127.0.0.1:0"),
            ServeConfig::default().with_workers(1),
        );
        mismatched.register(stub_spec("m", 1, 8)).unwrap();
        mismatched.warm_from_peers(&[warm.addr().to_string()]).ok();
        let (resp, _) = mismatched.handle_line(&req);
        let v = Json::parse(&resp).unwrap();
        let loops = v.get("loops").unwrap().as_array().unwrap();
        assert_eq!(
            loops[0].get("cached").unwrap().as_bool(),
            Some(false),
            "wrong-version entries must never serve from the LRU"
        );
    }

    /// The periodic checkpointer bounds crash loss: after an abort (no
    /// final persist) the snapshot written mid-run is all that
    /// survives — and it is present.
    #[test]
    fn periodic_checkpoint_bounds_crash_loss() {
        let dir = std::env::temp_dir().join(format!("nvc-hub-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.nvc").to_string_lossy().to_string();
        let cfg = HubConfig::default()
            .with_listen("127.0.0.1:0")
            .with_cache_path(path.clone())
            .with_cache_checkpoint_secs(1);
        let hub = Hub::new(cfg, ServeConfig::default().with_workers(1));
        hub.register(stub_spec("m", 1, 0)).unwrap();
        let handle = serve_tcp(Arc::new(hub)).unwrap();
        let req = nvc_serve::json::obj(vec![("source", Json::from(SRC))]).render();
        roundtrip(handle.addr(), &req);

        // Wait for a checkpoint to land, then crash.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.hub().cache_checkpoints.get() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "checkpointer never fired"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.abort();
        drop(handle);

        let text = std::fs::read_to_string(&path).expect("periodic snapshot must exist");
        let sections = crate::persist::parse(&text).unwrap();
        assert_eq!(sections.len(), 1);
        assert!(
            !sections[0].entries.is_empty(),
            "pre-crash decisions survive in the periodic snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
