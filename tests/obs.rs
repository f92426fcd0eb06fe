//! End-to-end trace attribution: every served decision must be
//! attributable from the span ring — a trace id set at the request
//! boundary reaches the spans recorded on *other* threads (the batch
//! worker), a cache hit is distinguishable from a batched forward by
//! span names alone, and a hub request's wire write joins its trace.
//!
//! One `#[test]` on purpose: the trace ring is process-global, so a
//! single test keeps the record stream deterministic.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use neurovectorizer::{Hub, HubConfig, NeuroVectorizer, NvConfig, ServeConfig};
use nvc_obs::{enable_tracing, export_records, next_trace_id, trace_scope, TraceRecord};

const SRC: &str = "float a[1024]; float b[1024];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] + b[i] * 2.0;
    }
}";

fn names_of(records: &[TraceRecord], trace: u64) -> Vec<&'static str> {
    records
        .iter()
        .filter(|r| r.trace == trace)
        .map(|r| r.name)
        .collect()
}

#[test]
fn served_decisions_are_attributable_by_trace_id() {
    enable_tracing();
    let mut cfg = NvConfig::fast();
    cfg.serve = ServeConfig::default().with_workers(1).with_batch_size(1);
    let handle = NeuroVectorizer::new(cfg).serve();

    // Request 1: a cold miss — must travel through the batcher. The
    // explicit outer scope stands in for the hub's per-line trace mint;
    // `request_scope` inside `vectorize` must defer to it (outermost
    // boundary wins), so every span lands under OUR id.
    let miss_trace = next_trace_id();
    {
        let _scope = trace_scope(miss_trace);
        handle.vectorize(SRC).expect("miss request");
    }

    // Request 2: the same source again — a pure cache hit.
    let hit_trace = next_trace_id();
    {
        let _scope = trace_scope(hit_trace);
        handle.vectorize(SRC).expect("hit request");
    }
    handle.shutdown();

    // Request 3: a hub request over TCP. The line server runs the line
    // under one trace id and writes its response under the same id.
    let hub = Hub::new(
        HubConfig::default().with_listen("127.0.0.1:0"),
        ServeConfig::default().with_workers(1),
    );
    let hub = nvc_hub::server::serve_tcp(Arc::new(hub)).expect("bind loopback");
    let mut stream = TcpStream::connect(hub.addr()).expect("connect");
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    BufReader::new(stream).read_line(&mut pong).unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");
    // Joining the loop thread guarantees its wire spans are recorded.
    hub.shutdown();

    let records = export_records();
    let miss = names_of(&records, miss_trace);
    let hit = names_of(&records, hit_trace);

    // The miss is fully attributable: boundary span, frontend, cache
    // probe, then the batcher's queue-wait + forward — all under the one
    // trace id.
    for name in [
        "request",
        "frontend",
        "cache_lookup",
        "queue_wait",
        "batch_forward",
    ] {
        assert!(
            miss.contains(&name),
            "miss trace {miss_trace} lacks `{name}`: {miss:?}"
        );
    }
    assert!(
        !miss.contains(&"cache_hit"),
        "cold request cannot be a cache hit: {miss:?}"
    );

    // The hit never reaches the batcher and says why it was fast.
    for name in ["request", "cache_lookup", "cache_hit"] {
        assert!(
            hit.contains(&name),
            "hit trace {hit_trace} lacks `{name}`: {hit:?}"
        );
    }
    for name in ["queue_wait", "batch_forward"] {
        assert!(
            !hit.contains(&name),
            "cache hit must not run the model: {hit:?}"
        );
    }

    // Cross-thread inheritance: the batch worker recorded the forward
    // under the request's trace id from a *different* thread than the
    // one that opened the request span.
    let request_thread = records
        .iter()
        .find(|r| r.trace == miss_trace && r.name == "request")
        .expect("request span")
        .thread;
    let forward = records
        .iter()
        .find(|r| r.trace == miss_trace && r.name == "batch_forward")
        .expect("batch_forward span");
    assert_ne!(
        forward.thread, request_thread,
        "batch_forward should run on the worker thread, not the caller's"
    );

    // The export format carries the attribution: one JSON line per span,
    // with the trace id intact.
    let line = forward.to_json_line();
    assert!(
        line.contains(&format!("\"trace\":{miss_trace}")),
        "JSON export lost the trace id: {line}"
    );
    assert!(line.contains("\"name\":\"batch_forward\""));

    // The wire write joins its request: one trace id carries both the
    // hub's request span and the response's `tcp_write`.
    let wire_trace = records
        .iter()
        .find(|r| r.name == "hub_request")
        .expect("hub_request span")
        .trace;
    assert_ne!(wire_trace, 0, "the line server mints a trace id per line");
    let wire = names_of(&records, wire_trace);
    assert!(
        wire.contains(&"tcp_write"),
        "hub trace {wire_trace} lacks `tcp_write`: {wire:?}"
    );
}
