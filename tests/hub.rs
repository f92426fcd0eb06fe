//! Integration tests for the hub tier: routing parity against a bare
//! `ServeHandle` over loopback TCP under concurrency, persistent-cache
//! restarts (same and changed checkpoint), A/B routing parity, and
//! hot-swap reload with requests in flight.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use neurovectorizer::{
    Hub, HubConfig, ModelSpec, NeuroVectorizer, NvConfig, ServeConfig, VectorizeEnv,
};
use nvc_datasets::generator;
use nvc_hub::server::{serve_tcp, HubHandle};
use nvc_serve::Json;

fn trained_nv(seed: u64) -> NeuroVectorizer {
    let cfg = NvConfig::fast().with_seed(seed);
    let mut env = VectorizeEnv::new(
        generator::generate(seed, 12),
        cfg.target.clone(),
        &cfg.embed,
    );
    let mut nv = NeuroVectorizer::new(cfg);
    nv.train(&mut env, 2);
    nv
}

/// A fresh model restored from `ckpt` (the hub side and the bare-handle
/// side must not share an instance for parity to mean anything).
fn restored(ckpt: &str) -> NeuroVectorizer {
    let mut nv = NeuroVectorizer::new(NvConfig::fast().with_seed(987));
    nv.restore(ckpt).expect("restore checkpoint");
    nv
}

fn spec(nv: NeuroVectorizer, name: &str, weight: u32) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        weight,
        checkpoint_hash: nv.checkpoint_hash(),
        model: Arc::new(nv),
    }
}

fn start_hub(cfg: HubConfig, specs: Vec<ModelSpec>) -> HubHandle {
    let hub = Hub::new(cfg, ServeConfig::default());
    for s in specs {
        hub.register(s).unwrap();
    }
    hub.restore_cache().unwrap();
    serve_tcp(Arc::new(hub)).expect("bind loopback")
}

/// Sends one vectorize request on an open connection; returns the
/// parsed response.
fn request_on(reader: &mut BufReader<TcpStream>, extra: Vec<(&str, Json)>, source: &str) -> Json {
    let mut members = vec![("source", Json::from(source))];
    members.extend(extra);
    let line = nvc_serve::json::obj(members).render();
    let stream = reader.get_mut();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim()).expect("parse response")
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).expect("connect"))
}

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nvc-hub-it-{tag}-{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

#[test]
fn hub_decisions_match_bare_serve_handle_under_tcp_concurrency() {
    let nv = trained_nv(21);
    let ckpt = nv.checkpoint();
    let sources: Vec<String> = generator::generate(33, 10)
        .into_iter()
        .map(|k| k.source)
        .collect();

    // Ground truth: a bare in-process ServeHandle over the same weights.
    let expected: Vec<String> = {
        let handle = restored(&ckpt).serve();
        sources
            .iter()
            .map(|s| handle.vectorize(s).expect("bare vectorize").source)
            .collect()
    };

    let handle = start_hub(
        HubConfig::default().with_listen("127.0.0.1:0"),
        vec![spec(restored(&ckpt), "prod", 1)],
    );
    let addr = handle.addr();

    // ≥ 8 concurrent client connections, every one comparing against
    // the bare-handle ground truth bitwise.
    std::thread::scope(|scope| {
        for c in 0..8 {
            let sources = &sources;
            let expected = &expected;
            scope.spawn(move || {
                let mut conn = connect(addr);
                for pass in 0..2 {
                    for (src, want) in sources.iter().zip(expected) {
                        let v = request_on(&mut conn, vec![], src);
                        assert_eq!(
                            v.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "client {c} pass {pass}: {}",
                            v.render()
                        );
                        assert_eq!(v.get("model").unwrap().as_str(), Some("prod"));
                        assert_eq!(
                            v.get("source").unwrap().as_str(),
                            Some(want.as_str()),
                            "hub decision diverged from bare ServeHandle"
                        );
                    }
                }
            });
        }
    });
    let stats = handle.hub().stats_json();
    let requests = stats
        .get("models")
        .unwrap()
        .get("prod")
        .unwrap()
        .get("requests")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(requests as u64, 8 * 2 * sources.len() as u64);
    handle.shutdown();
}

#[test]
fn warm_restart_restores_cache_and_changed_checkpoint_invalidates() {
    let nv = trained_nv(5);
    let ckpt = nv.checkpoint();
    let sources: Vec<String> = generator::generate(44, 6)
        .into_iter()
        .map(|k| k.source)
        .collect();
    let cache_path = tmp_path("restart");
    let cfg = HubConfig::default()
        .with_listen("127.0.0.1:0")
        .with_cache_path(cache_path.clone());

    // Cold hub: prime the cache over TCP, then shut down (persists).
    let first_pass: Vec<String> = {
        let handle = start_hub(cfg.clone(), vec![spec(restored(&ckpt), "prod", 1)]);
        let mut conn = connect(handle.addr());
        let out = sources
            .iter()
            .map(|s| {
                let v = request_on(&mut conn, vec![], s);
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
                v.get("source").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        handle.shutdown();
        out
    };
    assert!(
        std::fs::metadata(&cache_path).is_ok(),
        "shutdown must write the cache snapshot"
    );

    // Warm restart, same checkpoint: every loop is a hit and decisions
    // are unchanged.
    {
        let handle = start_hub(cfg.clone(), vec![spec(restored(&ckpt), "prod", 1)]);
        let mut conn = connect(handle.addr());
        for (src, want) in sources.iter().zip(&first_pass) {
            let v = request_on(&mut conn, vec![], src);
            assert_eq!(v.get("source").unwrap().as_str(), Some(want.as_str()));
            for l in v.get("loops").unwrap().as_array().unwrap() {
                assert_eq!(
                    l.get("cached").unwrap().as_bool(),
                    Some(true),
                    "warm restart must serve every loop from the restored cache"
                );
            }
        }
        let m = handle
            .hub()
            .registry()
            .get("prod")
            .unwrap()
            .handle
            .metrics();
        assert!(m.entries_restored > 0, "nothing restored");
        assert_eq!(m.entries_invalidated_by_version, 0);
        assert_eq!(m.batches, 0, "warm restart must not run the model");
        handle.shutdown();
    }

    // Restart with a *different* checkpoint: the snapshot is versioned
    // out, nothing is served stale.
    {
        let other = trained_nv(99);
        assert_ne!(other.checkpoint_hash(), restored(&ckpt).checkpoint_hash());
        let handle = start_hub(cfg, vec![spec(other, "prod", 1)]);
        let mut conn = connect(handle.addr());
        let v = request_on(&mut conn, vec![], &sources[0]);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        for l in v.get("loops").unwrap().as_array().unwrap() {
            assert_eq!(
                l.get("cached").unwrap().as_bool(),
                Some(false),
                "stale snapshot entries must not serve under a new checkpoint"
            );
        }
        let m = handle
            .hub()
            .registry()
            .get("prod")
            .unwrap()
            .handle
            .metrics();
        assert_eq!(m.entries_restored, 0);
        assert!(m.entries_invalidated_by_version > 0, "mismatch not counted");
        handle.shutdown();
    }
    let _ = std::fs::remove_file(&cache_path);
}

#[test]
fn ab_split_of_identical_checkpoints_matches_single_model_hub() {
    let nv = trained_nv(13);
    let ckpt = nv.checkpoint();
    let sources: Vec<String> = generator::generate(55, 8)
        .into_iter()
        .map(|k| k.source)
        .collect();

    let single = start_hub(
        HubConfig::default().with_listen("127.0.0.1:0"),
        vec![spec(restored(&ckpt), "only", 1)],
    );
    let ab = start_hub(
        HubConfig::default().with_listen("127.0.0.1:0"),
        vec![spec(restored(&ckpt), "a", 1), spec(restored(&ckpt), "b", 1)],
    );
    let mut single_conn = connect(single.addr());
    let mut ab_conn = connect(ab.addr());
    let mut models_seen = std::collections::HashSet::new();
    for (i, src) in sources.iter().enumerate() {
        let want = request_on(&mut single_conn, vec![], src);
        // Spread the split with distinct route keys; decisions must not
        // depend on which side serves (same checkpoint both sides).
        let route = format!("client-{i}");
        let got = request_on(
            &mut ab_conn,
            vec![("route", Json::from(route.as_str()))],
            src,
        );
        assert_eq!(
            got.get("source").unwrap().as_str(),
            want.get("source").unwrap().as_str(),
            "A/B split of one checkpoint changed a decision"
        );
        models_seen.insert(got.get("model").unwrap().as_str().unwrap().to_string());
    }
    assert_eq!(
        models_seen.len(),
        2,
        "route keys never reached both sides of a 1:1 split: {models_seen:?}"
    );
    single.shutdown();
    ab.shutdown();
}

#[test]
fn reload_hot_swaps_without_dropping_inflight_requests() {
    let nv = trained_nv(7);
    let ckpt_a = nv.checkpoint();
    let other = trained_nv(77);
    let ckpt_b = other.checkpoint();
    let dir = tmp_path("reload");
    std::fs::create_dir_all(&dir).unwrap();
    let path_b = format!("{dir}/b.ckpt");
    std::fs::write(&path_b, &ckpt_b).unwrap();

    let hub = Hub::new(
        HubConfig::default().with_listen("127.0.0.1:0"),
        ServeConfig::default(),
    )
    .with_loader(NeuroVectorizer::hub_loader(NvConfig::fast()));
    hub.register(spec(restored(&ckpt_a), "prod", 1)).unwrap();
    let old_hash = hub.registry().get("prod").unwrap().checkpoint_hash;
    let handle = serve_tcp(Arc::new(hub)).unwrap();
    let addr = handle.addr();

    let sources: Vec<String> = generator::generate(66, 8)
        .into_iter()
        .map(|k| k.source)
        .collect();

    // Clients hammer vectorize while another connection reloads.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let sources = &sources;
            scope.spawn(move || {
                let mut conn = connect(addr);
                for pass in 0..6 {
                    for src in sources {
                        let v = request_on(&mut conn, vec![], src);
                        assert_eq!(
                            v.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "request dropped during reload (pass {pass}): {}",
                            v.render()
                        );
                    }
                }
            });
        }
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut conn = connect(addr);
            let line = nvc_serve::json::obj(vec![
                ("op", Json::from("reload")),
                ("model", Json::from("prod")),
                ("checkpoint", Json::from(path_b.as_str())),
            ])
            .render();
            let stream = conn.get_mut();
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut response = String::new();
            conn.read_line(&mut response).unwrap();
            let v = Json::parse(response.trim()).unwrap();
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "reload failed: {response}"
            );
        });
    });

    let entry = handle.hub().registry().get("prod").unwrap();
    assert_ne!(entry.checkpoint_hash, old_hash, "reload did not swap");
    // And the hub now answers with the new checkpoint's decisions.
    let reference = restored(&ckpt_b).serve();
    let mut conn = connect(addr);
    for src in &sources {
        let want = reference.vectorize(src).unwrap().source;
        let got = request_on(&mut conn, vec![], src);
        assert_eq!(got.get("source").unwrap().as_str(), Some(want.as_str()));
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-process hub serving one untrained model: enough to exercise
/// request handling without a training run.
fn in_process_hub() -> Hub {
    let hub = Hub::new(HubConfig::default(), ServeConfig::default());
    let nv = NeuroVectorizer::new(NvConfig::fast().with_seed(41));
    hub.register(spec(nv, "prod", 1)).unwrap();
    hub
}

fn handle(hub: &Hub, line: &str) -> Json {
    Json::parse(&hub.handle_line(line).0).expect("the hub answers every line with JSON")
}

#[test]
fn pathologically_nested_requests_fail_cleanly_and_the_hub_keeps_answering() {
    let hub = in_process_hub();
    let n = 100_000;
    let parens = format!(
        "int a[8];\nvoid f(int n) {{ for (int i = 0; i < n; i++) {{ a[i] = {}1{}; }} }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let chain = format!(
        "int a[8];\nvoid f(int n) {{ for (int i = 0; i < n; i++) {{ a[i] = 1{}; }} }}",
        " + a[i]".repeat(n)
    );
    let blocks = format!("void f() {{ {}{} }}", "{".repeat(n), "}".repeat(n));
    let lines = [
        nvc_serve::json::obj(vec![("source", Json::from(parens.as_str()))]).render(),
        nvc_serve::json::obj(vec![("source", Json::from(chain.as_str()))]).render(),
        nvc_serve::json::obj(vec![("source", Json::from(blocks.as_str()))]).render(),
        "[".repeat(200_000),
        format!(
            "{{\"op\":\"vectorize\",\"source\":\"int x;\",\"pad\":{}",
            "[".repeat(200_000)
        ),
    ];
    for line in &lines {
        let v = handle(&hub, line);
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "{}",
            &line[..60]
        );
        let error = v.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nesting deeper than"), "{error}");
        let pong = handle(&hub, r#"{"op":"ping","id":"after"}"#);
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(pong.get("id").and_then(Json::as_str), Some("after"));
    }
    // Every refused line is counted; the pings between them are not.
    let stats = handle(&hub, r#"{"op":"stats"}"#);
    let errors = stats
        .get("stats")
        .and_then(|s| s.get("request_errors"))
        .and_then(Json::as_f64);
    assert_eq!(errors, Some(lines.len() as f64));
}

#[test]
fn multi_declarator_globals_serve_like_one_declaration_per_global() {
    let body = "\nvoid f(int n, float s) {
    for (int i = 0; i < n; i++) { a[i] = b[i] * s + c[i]; }
    for (int i = 0; i < n; i++) { c[i] = a[i] > b[i] ? a[i] : b[i]; }
}";
    let joined = format!("float a[1024], b[1024] __attribute__((aligned(16))), c[1024];{body}");
    let split =
        format!("float a[1024]; float b[1024] __attribute__((aligned(16))); float c[1024];{body}");
    let hub = in_process_hub();
    let serve = |source: &str| {
        let v = handle(
            &hub,
            &nvc_serve::json::obj(vec![("source", Json::from(source))]).render(),
        );
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.render()
        );
        let loops: Vec<String> = v
            .get("loops")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|l| {
                let field = |k: &str| l.get(k).map(Json::render).unwrap_or_default();
                ["function", "line", "vf", "if", "key"].map(field).join(" ")
            })
            .collect();
        let annotated = v.get("source").and_then(Json::as_str).unwrap().to_string();
        (loops, annotated)
    };
    let (joined_loops, joined_out) = serve(&joined);
    let (split_loops, split_out) = serve(&split);
    assert_eq!(joined_loops.len(), 2);
    assert_eq!(joined_loops, split_loops);
    let after_decls = |s: &str| s.split_once('\n').unwrap().1.to_string();
    assert_eq!(after_decls(&joined_out), after_decls(&split_out));
    assert!(joined_out.starts_with("float a[1024], b[1024]"));
}

/// Pipelines `lines` on one connection from a writer thread while the
/// calling thread reads the responses; returns them in arrival order.
/// The reader starts late, like a client that sends a burst before it
/// collects answers, so the hub holds a full socket buffer of lines.
/// Every response must arrive within 60 s.
fn pipeline(addr: SocketAddr, lines: Vec<String>) -> Vec<Json> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let n = lines.len();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let mut batch = Vec::new();
        for line in lines {
            batch.extend_from_slice(line.as_bytes());
            batch.push(b'\n');
            if batch.len() >= 64 * 1024 {
                writer.write_all(&batch).expect("pipelined write");
                batch.clear();
            }
        }
        writer.write_all(&batch).expect("pipelined write");
    });
    std::thread::sleep(std::time::Duration::from_millis(500));
    let mut reader = BufReader::new(stream);
    let responses = (0..n)
        .map(|i| {
            let mut response = String::new();
            let got = reader.read_line(&mut response);
            assert!(
                matches!(got, Ok(len) if len > 0) && std::time::Instant::now() < deadline,
                "response {i} of {n} did not arrive in time: {got:?}"
            );
            Json::parse(response.trim()).expect("parse response")
        })
        .collect();
    sender.join().unwrap();
    responses
}

fn assert_pongs_in_order(responses: &[Json]) {
    for (i, v) in responses.iter().enumerate() {
        assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true), "{i}");
        assert_eq!(
            v.get("id").and_then(Json::as_str),
            Some(i.to_string().as_str()),
            "responses arrive in request order"
        );
    }
}

/// One client pipelining a burst of small lines gets every answer, in
/// order: the line split is linear in the bytes buffered, and the
/// in-flight bound throttles only this connection.
#[test]
fn pipelined_burst_of_pings_is_answered_in_order() {
    let handle = start_hub(HubConfig::default().with_listen("127.0.0.1:0"), vec![]);
    let lines = (0..1_000_000)
        .map(|i| format!(r#"{{"op":"ping","id":"{i}"}}"#))
        .collect();
    assert_pongs_in_order(&pipeline(handle.addr(), lines));
    handle.shutdown();
}

/// Pipelined large lines that together exceed the 16 MiB line limit
/// are all answered: the limit applies per line, not to the buffer.
#[test]
fn pipelined_large_lines_beyond_the_line_limit_are_answered() {
    let handle = start_hub(HubConfig::default().with_listen("127.0.0.1:0"), vec![]);
    let pad = "x".repeat(1 << 20);
    let lines = (0..20)
        .map(|i| format!(r#"{{"op":"ping","id":"{i}","pad":"{pad}"}}"#))
        .collect();
    assert_pongs_in_order(&pipeline(handle.addr(), lines));
    handle.shutdown();
}

/// A line past the limit is still cut off, and the hub keeps serving.
#[test]
fn unterminated_line_past_the_limit_is_cut_off() {
    let handle = start_hub(HubConfig::default().with_listen("127.0.0.1:0"), vec![]);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // The write fails part-way once the hub hangs up; either is fine.
    let _ = stream.write_all(&vec![b'x'; 17 << 20]);
    let mut buf = [0u8; 64];
    match std::io::Read::read(&mut stream, &mut buf) {
        Ok(0) => {}
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the hub must hang up, not wait: {e}"
        ),
        Ok(n) => panic!("unexpected {n} response bytes"),
    }
    let mut conn = connect(handle.addr());
    conn.get_mut().write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    conn.read_line(&mut pong).unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");
    handle.shutdown();
}
