//! The service itself: [`ServeHandle`] (in-process API) and
//! [`run_daemon`] (JSON-lines loop over arbitrary reader/writer pairs —
//! stdin/stdout in production, byte buffers in tests).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nvc_embed::{extract_loop_samples, LoopSite, PathSample};
use nvc_frontend::{inject_pragmas, LoopPragma};
use nvc_vectorizer::ActionSpace;

use crate::batch::Batcher;
use crate::cache::{CacheStats, ShardedLruCache};
use crate::json::{obj, Json};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::protocol::{LoopReport, Request};
use crate::{sample_key, DecisionModel, ServeConfig, SharedDecisionStore};

/// How long a request waits for the batch workers before giving up.
const DECISION_TIMEOUT: Duration = Duration::from_secs(30);

/// How many recently decided samples the handle keeps around for
/// post-reload warmup replay (the cache itself only holds one-way
/// hashes, which cannot be re-decided under a new checkpoint).
const WARM_SAMPLE_CAPACITY: usize = 4096;

/// Service failures surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The source did not parse.
    Frontend(String),
    /// The batch workers did not answer in time (service overloaded).
    Timeout,
    /// The worker pool has been shut down.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Frontend(e) => write!(f, "frontend: {e}"),
            ServeError::Timeout => write!(f, "decision timed out"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

fn recv_decision(
    rx: &std::sync::mpsc::Receiver<(usize, usize)>,
) -> Result<(usize, usize), ServeError> {
    rx.recv_timeout(DECISION_TIMEOUT).map_err(|e| match e {
        std::sync::mpsc::RecvTimeoutError::Timeout => ServeError::Timeout,
        std::sync::mpsc::RecvTimeoutError::Disconnected => ServeError::ShuttingDown,
    })
}

impl std::error::Error for ServeError {}

/// Result of one vectorize request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorizeOutput {
    /// The source with pragmas injected above every decided loop.
    pub source: String,
    /// Per-loop decisions, in source order.
    pub loops: Vec<LoopReport>,
    /// End-to-end service latency for this request.
    pub latency_us: u64,
}

struct Inner {
    model: Arc<dyn DecisionModel>,
    space: ActionSpace,
    cache: ShardedLruCache<(usize, usize)>,
    batcher: Batcher,
    metrics: Metrics,
    /// Single-flight registry: keys whose decision is being computed
    /// right now, with the reply channels of every request waiting on
    /// them. Concurrent misses on the same key coalesce onto one model
    /// forward instead of embedding the same loop twice.
    inflight: Mutex<HashMap<u64, Vec<Sender<(usize, usize)>>>>,
    /// Second-level decision store shared beyond this handle (A/B
    /// sides, reloads, peer nodes), with the checkpoint hash this
    /// handle's decisions are content-addressed under. `None` keeps the
    /// pre-fleet single-cache behavior.
    shared: Option<(u64, Arc<dyn SharedDecisionStore>)>,
    /// Recently decided samples by cache key, kept (bounded) so a
    /// hot-swap reload can replay them as shadow traffic against the
    /// fresh checkpoint — the cache keys alone are one-way hashes.
    warm: Mutex<HashMap<u64, PathSample>>,
}

/// One key's resolution state between [`Inner::begin_decision`] and
/// [`Inner::finish_decision`]. Splitting the two phases lets a request
/// with several distinct misses submit them all before blocking, so they
/// still coalesce into one model batch.
enum PendingDecision {
    /// The cache already had it.
    Cached((usize, usize)),
    /// This request owns the model submission for the key.
    Leader(Receiver<(usize, usize)>),
    /// Another request is already computing the key; wait for its reply.
    Follower(Receiver<(usize, usize)>),
}

impl Inner {
    /// Starts resolving `key`: cache probe, then either join the key's
    /// in-flight computation or become its leader and submit to the
    /// batcher.
    fn begin_decision(&self, key: u64, sample: &PathSample) -> PendingDecision {
        let hit = {
            let _span = nvc_obs::span("cache_lookup");
            self.cache.get(key)
        };
        if let Some(pair) = hit {
            nvc_obs::marker("cache_hit");
            return PendingDecision::Cached(pair);
        }
        // Off the hit path (one global lock would contend the warm
        // loop): every *miss* records its sample for warmup replay.
        self.retain_warm_sample(key, sample);
        // Second level: the shared content-addressed store. A hit there
        // (computed by the A/B twin, a previous incarnation of this
        // checkpoint, or a peer node) back-fills the LRU so the next
        // probe stays local.
        if let Some((ckpt, store)) = &self.shared {
            if let Some(pair) = store.get(*ckpt, key) {
                self.cache.insert(key, pair);
                self.metrics.shared_hits.inc();
                nvc_obs::marker("shared_hit");
                return PendingDecision::Cached(pair);
            }
        }
        {
            let mut inflight = self.inflight.lock();
            if let Some(waiters) = inflight.get_mut(&key) {
                let (tx, rx) = channel();
                waiters.push(tx);
                self.metrics.dedup_waits.inc();
                nvc_obs::marker("dedup_wait");
                return PendingDecision::Follower(rx);
            }
            inflight.insert(key, Vec::new());
        }
        PendingDecision::Leader(self.batcher.submit(sample.clone()))
    }

    /// Blocks until `pending` resolves. Returns the pair and whether it
    /// came from the cache. A leader publishes its result to the cache
    /// and every coalesced follower; if the leader fails, its followers
    /// wake (dropped senders) and retry from the cache probe.
    fn finish_decision(
        &self,
        key: u64,
        sample: &PathSample,
        mut pending: PendingDecision,
    ) -> Result<((usize, usize), bool), ServeError> {
        loop {
            match pending {
                PendingDecision::Cached(pair) => return Ok((pair, true)),
                PendingDecision::Leader(rx) => {
                    return match recv_decision(&rx) {
                        Ok(pair) => {
                            self.cache.insert(key, pair);
                            if let Some((ckpt, store)) = &self.shared {
                                store.put(*ckpt, key, pair);
                                self.metrics.shared_publishes.inc();
                            }
                            let waiters = self.inflight.lock().remove(&key).unwrap_or_default();
                            for w in waiters {
                                // A dropped receiver (abandoned request)
                                // is not an error.
                                let _ = w.send(pair);
                            }
                            Ok((pair, false))
                        }
                        Err(e) => {
                            // Wake the followers by dropping their
                            // senders; they re-resolve from scratch.
                            self.inflight.lock().remove(&key);
                            Err(e)
                        }
                    };
                }
                PendingDecision::Follower(rx) => match rx.recv_timeout(DECISION_TIMEOUT) {
                    Ok(pair) => return Ok((pair, false)),
                    Err(RecvTimeoutError::Timeout) => return Err(ServeError::Timeout),
                    Err(RecvTimeoutError::Disconnected) => {
                        // Our leader failed. Start over — the next
                        // attempt hits the cache, joins a newer leader,
                        // or becomes the leader itself (and surfaces the
                        // underlying error if the service is down).
                        pending = self.begin_decision(key, sample);
                    }
                },
            }
        }
    }

    /// Remembers `sample` under its key for post-reload warmup replay.
    /// Bounded: once full, already-known keys keep refreshing knowledge
    /// of nothing (they are present) and new keys are dropped — the
    /// replay set is best-effort shadow traffic, not a ledger.
    fn retain_warm_sample(&self, key: u64, sample: &PathSample) {
        let mut warm = self.warm.lock();
        if warm.len() < WARM_SAMPLE_CAPACITY || warm.contains_key(&key) {
            warm.entry(key).or_insert_with(|| sample.clone());
        }
    }
}

/// A running vectorization service: worker threads + cache + metrics.
///
/// Dropping the handle stops the workers. All request methods take `&self`
/// and are safe to call from many threads at once.
pub struct ServeHandle {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServeHandle {
    /// Starts the worker pool around `model`.
    ///
    /// Each worker's flush batches run the model's batched forward,
    /// whose matmuls may themselves shard rows across the process-wide
    /// persistent kernel worker pool (`NvConfig::matmul_threads`,
    /// applied when the model is constructed). The two thread layers
    /// nest freely — concurrent workers' jobs queue on the shared pool
    /// and kernel shards are bitwise-identical at any count — so
    /// worker concurrency never changes a decision, only its latency.
    pub fn start(model: Arc<dyn DecisionModel>, cfg: ServeConfig) -> Self {
        ServeHandle::start_with_store(model, cfg, None)
    }

    /// [`ServeHandle::start`] with a second-level decision store shared
    /// beyond this handle. `shared` carries the checkpoint hash this
    /// handle's decisions are content-addressed under — entries only
    /// flow between handles serving the *same* checkpoint, no matter
    /// how many handles (A/B sides, reload generations, peers via
    /// gossip) share the store object.
    pub fn start_with_store(
        model: Arc<dyn DecisionModel>,
        cfg: ServeConfig,
        shared: Option<(u64, Arc<dyn SharedDecisionStore>)>,
    ) -> Self {
        // `NVC_TRACE=path` turns request tracing on for any embedding of
        // the service — daemon, hub, tests — without CLI plumbing.
        nvc_obs::init_from_env();
        let space = ActionSpace::for_target(model.target());
        let inner = Arc::new(Inner {
            space,
            cache: ShardedLruCache::new(cfg.cache_capacity, cfg.cache_shards),
            batcher: Batcher::new(
                cfg.batch_size,
                cfg.queue_capacity,
                Duration::from_micros(cfg.flush_deadline_us),
            ),
            metrics: Metrics::default(),
            inflight: Mutex::new(HashMap::new()),
            shared,
            warm: Mutex::new(HashMap::new()),
            model,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nv-serve-worker-{i}"))
                    .spawn(move || {
                        inner
                            .batcher
                            .worker_loop(inner.model.as_ref(), &inner.metrics)
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        ServeHandle {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The action space decisions index into.
    pub fn space(&self) -> &ActionSpace {
        &self.inner.space
    }

    /// Decides one already-extracted sample: cache lookup, then
    /// single-flight batched model fallback (a concurrent identical miss
    /// waits for the in-flight decision instead of embedding the loop
    /// again). Returns the action pair and whether it was cached.
    pub fn decide_sample(&self, sample: &PathSample) -> Result<((usize, usize), bool), ServeError> {
        let key = sample_key(sample);
        let pending = self.inner.begin_decision(key, sample);
        self.inner.finish_decision(key, sample, pending)
    }

    /// The full inference product over a source file: decide `(VF, IF)`
    /// for every innermost loop and return the source with pragmas
    /// injected (plus per-loop detail).
    pub fn vectorize(&self, source: &str) -> Result<VectorizeOutput, ServeError> {
        let t0 = Instant::now();
        // Mint a trace id unless the caller (the hub's connection loop)
        // already scoped one over this request.
        let _trace = nvc_obs::request_scope();
        let _request = nvc_obs::span("request");
        self.inner.metrics.requests.inc();
        match self.vectorize_inner(source, t0) {
            Ok(out) => {
                self.inner
                    .metrics
                    .latency
                    .record(t0.elapsed().as_micros() as u64);
                Ok(out)
            }
            Err(e) => {
                self.inner.metrics.errors.inc();
                Err(e)
            }
        }
    }

    fn vectorize_inner(&self, source: &str, t0: Instant) -> Result<VectorizeOutput, ServeError> {
        // The same extraction pipeline as `NeuroVectorizer::vectorize_source`
        // — decisions and cache keys must agree with the direct path.
        let sites = {
            let _span = nvc_obs::span("frontend");
            extract_loop_samples(source, self.inner.model.embed_config())
                .map_err(|e| ServeError::Frontend(e.to_string()))?
        };
        let keyed: Vec<(u64, &LoopSite)> =
            sites.iter().map(|s| (sample_key(&s.sample), s)).collect();
        let mut by_key: Vec<(u64, &PathSample)> = Vec::new();
        for (key, site) in &keyed {
            if !by_key.iter().any(|(k, _)| k == key) {
                by_key.push((*key, &site.sample));
            }
        }

        // Resolve each distinct key: cache first, then one single-flight
        // submission per miss (identical loop shapes in one file embed
        // once; identical misses across concurrent requests coalesce
        // too). All misses are submitted before any blocks, so they
        // still share model batches.
        let mut resolved: Vec<(u64, (usize, usize), bool)> = Vec::new();
        let mut waiting: Vec<(u64, &PathSample, PendingDecision)> = Vec::new();
        for (key, sample) in &by_key {
            match self.inner.begin_decision(*key, sample) {
                PendingDecision::Cached(pair) => resolved.push((*key, pair, true)),
                pending => waiting.push((*key, sample, pending)),
            }
        }
        // Finish every pending key even after a failure: a Leader's
        // cleanup (removing its `inflight` registration) happens inside
        // `finish_decision`, so abandoning the rest on the first error
        // would leave their keys permanently marked in-flight and every
        // future miss on them waiting for a reply that never comes.
        let mut first_err = None;
        for (key, sample, pending) in waiting {
            match self.inner.finish_decision(key, sample, pending) {
                Ok((pair, cached)) => resolved.push((key, pair, cached)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let decision_of = |key: u64| {
            resolved
                .iter()
                .find(|(k, _, _)| *k == key)
                .map(|&(_, pair, cached)| (pair, cached))
                .expect("every pending key was resolved")
        };

        let mut reports: Vec<LoopReport> = keyed
            .iter()
            .map(|(key, site)| {
                let ((vf_idx, if_idx), cached) = decision_of(*key);
                let d = self.inner.space.decision_from_pair(vf_idx, if_idx);
                LoopReport {
                    function: site.function.clone(),
                    line: site.header_line,
                    vf: d.vf,
                    if_: d.if_,
                    cached,
                    key: *key,
                }
            })
            .collect();
        let pragmas: Vec<(u32, LoopPragma)> = reports
            .iter()
            .map(|r| {
                (
                    r.line,
                    LoopPragma {
                        vectorize_width: r.vf,
                        interleave_count: r.if_,
                    },
                )
            })
            .collect();
        let out = inject_pragmas(source, &pragmas);
        reports.sort_by_key(|r| r.line);
        self.inner.metrics.loops_served.add(reports.len() as u64);
        Ok(VectorizeOutput {
            source: out,
            loops: reports,
            latency_us: t0.elapsed().as_micros() as u64,
        })
    }

    /// Point-in-time service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Point-in-time cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The full introspection surface as one JSON object.
    pub fn stats_json(&self) -> Json {
        let m = self.metrics();
        let c = self.cache_stats();
        obj(vec![
            ("uptime_us", Json::from(m.uptime_us)),
            (
                "kernel_mode",
                Json::from(nvc_nn::kernels::kernel_mode().name()),
            ),
            ("requests", Json::from(m.requests)),
            ("errors", Json::from(m.errors)),
            ("loops_served", Json::from(m.loops_served)),
            ("warmup_replayed", Json::from(m.warmup_replayed)),
            (
                "cache",
                obj(vec![
                    ("hits", Json::from(c.hits)),
                    ("misses", Json::from(c.misses)),
                    ("hit_rate", Json::from(c.hit_rate())),
                    ("evictions", Json::from(c.evictions)),
                    ("insertions", Json::from(c.insertions)),
                    ("entries", Json::from(c.len())),
                    ("shards", Json::from(c.occupancy.len())),
                    ("shard_capacity", Json::from(c.shard_capacity)),
                    ("entries_restored", Json::from(m.entries_restored)),
                    (
                        "entries_invalidated_by_version",
                        Json::from(m.entries_invalidated_by_version),
                    ),
                    ("shared_hits", Json::from(m.shared_hits)),
                    ("shared_publishes", Json::from(m.shared_publishes)),
                    (
                        "occupancy",
                        Json::Arr(c.occupancy.iter().map(|&o| Json::from(o)).collect()),
                    ),
                ]),
            ),
            (
                "batch",
                obj(vec![
                    ("batches", Json::from(m.batches)),
                    ("batched_loops", Json::from(m.batched_loops)),
                    ("dedup_waits", Json::from(m.dedup_waits)),
                    ("mean_batch", Json::from(m.mean_batch)),
                ]),
            ),
            (
                "latency",
                obj(vec![
                    ("count", Json::from(m.latency_count)),
                    ("mean_us", Json::from(m.latency_mean_us)),
                    ("p50_us", Json::from(m.latency_p50_us)),
                    ("p99_us", Json::from(m.latency_p99_us)),
                    (
                        "histogram_us",
                        Json::Arr(
                            self.inner
                                .metrics
                                .latency
                                .nonzero_buckets()
                                .into_iter()
                                .map(|(le, n)| Json::Arr(vec![Json::from(le), Json::from(n)]))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("ops", ops_json()),
        ])
    }

    /// Prometheus text exposition of this service's metrics registry,
    /// followed by the kernel op timers (each op sample labelled with the
    /// active `kernel_mode` so dashboards can split strict vs fast
    /// traffic). `labels` is spliced into every sample (`""` for none).
    pub fn render_prometheus(&self, labels: &str) -> String {
        let mut out = self.inner.metrics.registry().render_prometheus(labels);
        out.push_str(&render_ops_prometheus(labels));
        out
    }

    /// The metrics registry behind this handle's instruments.
    pub fn metrics_registry(&self) -> Arc<nvc_obs::MetricsRegistry> {
        Arc::clone(self.inner.metrics.registry())
    }

    /// Handles one protocol line; returns the response line and whether
    /// the daemon should keep running.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let with_id = |id: Option<&str>, mut members: Vec<(&str, Json)>| {
            if let Some(id) = id {
                members.insert(0, ("id", Json::from(id)));
            }
            obj(members).render()
        };
        // Parse the line once; an invalid request may still carry a
        // correlation id the client needs to pair the error with.
        let parsed = Json::parse(line)
            .map_err(|e| (None, format!("invalid JSON: {e}")))
            .and_then(|v| {
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                Request::from_json(&v).map_err(|e| (id, e))
            });
        match parsed {
            Err((id, e)) => (
                with_id(
                    id.as_deref(),
                    vec![("ok", Json::from(false)), ("error", Json::from(e))],
                ),
                true,
            ),
            Ok(Request::Stats { id }) => (
                with_id(
                    id.as_deref(),
                    vec![("ok", Json::from(true)), ("stats", self.stats_json())],
                ),
                true,
            ),
            Ok(Request::Shutdown { id }) => (
                with_id(
                    id.as_deref(),
                    vec![("ok", Json::from(true)), ("shutdown", Json::from(true))],
                ),
                false,
            ),
            Ok(Request::Vectorize { id, source }) => match self.vectorize(&source) {
                Ok(out) => (
                    with_id(
                        id.as_deref(),
                        vec![
                            ("ok", Json::from(true)),
                            ("source", Json::from(out.source)),
                            (
                                "loops",
                                Json::Arr(out.loops.iter().map(LoopReport::to_json).collect()),
                            ),
                            ("latency_us", Json::from(out.latency_us)),
                        ],
                    ),
                    true,
                ),
                Err(e) => (
                    with_id(
                        id.as_deref(),
                        vec![
                            ("ok", Json::from(false)),
                            ("error", Json::from(e.to_string())),
                        ],
                    ),
                    true,
                ),
            },
        }
    }

    /// Stops the worker pool, letting in-flight batches complete (the
    /// workers drain the queue before exiting). Idempotent, takes
    /// `&self` so daemons can drain on a shared handle; also done on
    /// drop.
    pub fn shutdown(&self) {
        self.inner.batcher.stop();
        let workers: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        // Push any still-buffered span records to the `NVC_TRACE` sink
        // before the process (or test) moves on.
        nvc_obs::flush_trace();
    }

    /// Every cached decision, coldest first per shard — the persistence
    /// image the hub writes to disk on shutdown
    /// (see [`ShardedLruCache::snapshot`] for the recency guarantee).
    pub fn cache_snapshot(&self) -> Vec<(u64, (usize, usize))> {
        self.inner.cache.snapshot()
    }

    /// Seeds the decision cache from a persisted snapshot (coldest
    /// first) and counts the entries in `entries_restored`. The caller
    /// is responsible for version-checking the snapshot against the
    /// model's checkpoint hash *before* restoring — a stale snapshot
    /// must go through [`ServeHandle::record_invalidated_entries`]
    /// instead of here.
    pub fn restore_cache(&self, entries: impl IntoIterator<Item = (u64, (usize, usize))>) -> usize {
        let n = self.inner.cache.restore(entries);
        self.inner.metrics.entries_restored.add(n as u64);
        n
    }

    /// Records `n` persisted cache entries that were discarded because
    /// their snapshot was taken under a different checkpoint.
    pub fn record_invalidated_entries(&self, n: u64) {
        self.inner.metrics.entries_invalidated_by_version.add(n);
    }

    /// The samples this handle has decided (bounded, miss-path only) —
    /// the shadow-traffic set a hot-swap reload replays against the
    /// replacement handle so it starts warm.
    pub fn warm_samples(&self) -> Vec<PathSample> {
        self.inner.warm.lock().values().cloned().collect()
    }

    /// The embedding vocabulary configuration of the underlying model —
    /// what a caller needs to re-extract samples from source text with
    /// keys that agree with this handle's decisions.
    pub fn embed_config(&self) -> nvc_embed::EmbedConfig {
        self.inner.model.embed_config().clone()
    }

    /// The sample behind a decision `key`, if this handle still holds it
    /// in its warm set. The online-learning loop uses this to correlate a
    /// client's `report` (which echoes the key from a vectorize response)
    /// back to the path-context sample the decision was made on. The warm
    /// set is bounded and miss-path-only, so `None` is an expected answer
    /// for old or cache-hit-only keys — callers fall back to re-extracting
    /// from the reported source.
    pub fn lookup_sample(&self, key: u64) -> Option<PathSample> {
        self.inner.warm.lock().get(&key).cloned()
    }

    /// The cached decision for `key`, if still resident. Pure probe: no
    /// model fallback, no LRU-order perturbation beyond the read itself.
    pub fn lookup_decision(&self, key: u64) -> Option<(usize, usize)> {
        self.inner.cache.get(key)
    }

    /// Replays `samples` as shadow traffic: each one is decided through
    /// the normal cache → shared-store → model path (so already-warm
    /// keys cost a probe, not a forward) and counted in
    /// `warmup_replayed`. Returns how many were decided; stops early if
    /// the handle shuts down mid-replay.
    pub fn warm_replay(&self, samples: &[PathSample]) -> usize {
        let mut replayed = 0;
        for s in samples {
            match self.decide_sample(s) {
                Ok(_) => {
                    self.inner.metrics.warmup_replayed.inc();
                    replayed += 1;
                }
                Err(ServeError::ShuttingDown) => break,
                Err(_) => {}
            }
        }
        replayed
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Prometheus exposition of the kernel op timers. Mirrors
/// [`ops_json`]'s filter (only ops that ran; empty when `NVC_OPS` is
/// off) and splices `labels` in front of the per-sample label set the
/// same way the metrics registry does.
fn render_ops_prometheus(labels: &str) -> String {
    use std::fmt::Write as _;
    let mode = nvc_nn::kernels::kernel_mode().name();
    let snap: Vec<_> = nvc_obs::ops_snapshot()
        .into_iter()
        .filter(|s| s.calls > 0)
        .collect();
    if snap.is_empty() {
        return String::new();
    }
    let set = |op: &str| {
        if labels.is_empty() {
            format!("op=\"{op}\",kernel_mode=\"{mode}\"")
        } else {
            format!("{labels},op=\"{op}\",kernel_mode=\"{mode}\"")
        }
    };
    let mut out = String::from("# TYPE nvc_kernel_op_calls_total counter\n");
    for s in &snap {
        let _ = writeln!(
            out,
            "nvc_kernel_op_calls_total{{{}}} {}",
            set(s.op.name()),
            s.calls
        );
    }
    out.push_str("# TYPE nvc_kernel_op_time_us_total counter\n");
    for s in &snap {
        let _ = writeln!(
            out,
            "nvc_kernel_op_time_us_total{{{}}} {}",
            set(s.op.name()),
            s.total_ns as f64 / 1_000.0
        );
    }
    out
}

/// The kernel op-timer aggregates as one JSON object: op name →
/// `{calls, total_us}`, only ops that ran (empty when `NVC_OPS` is off —
/// the section is always present so consumers need no feature probe).
fn ops_json() -> Json {
    obj(nvc_obs::ops_snapshot()
        .into_iter()
        .filter(|s| s.calls > 0)
        .map(|s| {
            (
                s.op.name(),
                obj(vec![
                    ("calls", Json::from(s.calls)),
                    ("total_us", Json::from(s.total_ns as f64 / 1_000.0)),
                ]),
            )
        })
        .collect())
}

/// The daemon loop: one JSON request per input line, one JSON response
/// per output line, until EOF or a `shutdown` request.
///
/// Both exits drain gracefully: [`ServeHandle::shutdown`] lets in-flight
/// batches complete, then one final line
/// `{"final_stats": …}` (the full [`MetricsSnapshot`]/cache surface) is
/// emitted so operators keep the session's counters even when the client
/// just closed stdin (`Ctrl-D`).
pub fn run_daemon<R: BufRead, W: Write>(
    handle: &ServeHandle,
    input: R,
    output: &mut W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (response, keep_going) = handle.handle_line(&line);
        writeln!(output, "{response}")?;
        output.flush()?;
        if !keep_going {
            break;
        }
    }
    handle.shutdown();
    writeln!(
        output,
        "{}",
        obj(vec![("final_stats", handle.stats_json())]).render()
    )?;
    output.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_embed::EmbedConfig;
    use nvc_machine::TargetConfig;

    /// Deterministic model: the decision is a function of the sample.
    struct Stub {
        embed: EmbedConfig,
        target: TargetConfig,
    }

    impl Stub {
        fn new() -> Self {
            Stub {
                embed: EmbedConfig::fast(),
                target: TargetConfig::i7_8559u(),
            }
        }
    }

    impl DecisionModel for Stub {
        fn embed_config(&self) -> &EmbedConfig {
            &self.embed
        }

        fn target(&self) -> &TargetConfig {
            &self.target
        }

        fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
            let dims = (
                self.target.vf_candidates().len(),
                self.target.if_candidates().len(),
            );
            samples
                .iter()
                .map(|s| {
                    (
                        s.len() % dims.0,
                        s.starts.first().copied().unwrap_or(0) % dims.1,
                    )
                })
                .collect()
        }
    }

    fn start(cfg: ServeConfig) -> ServeHandle {
        ServeHandle::start(Arc::new(Stub::new()), cfg)
    }

    const SRC: &str = "float a[512]; float b[512]; float M[32][32];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
    }
    for (int i = 0; i < 32; i++) {
        for (int j = 0; j < 32; j++) {
            M[i][j] = 0.0;
        }
    }
}";

    #[test]
    fn vectorize_annotates_all_innermost_loops() {
        let h = start(ServeConfig::default());
        let out = h.vectorize(SRC).unwrap();
        assert_eq!(out.loops.len(), 2);
        assert_eq!(out.source.matches("#pragma clang loop").count(), 2);
        assert!(out.loops.iter().all(|l| !l.cached), "first request is cold");
        // Same file again: every loop now comes from the cache.
        let again = h.vectorize(SRC).unwrap();
        assert!(again.loops.iter().all(|l| l.cached));
        assert_eq!(again.source, out.source, "cache must not change decisions");
        let stats = h.cache_stats();
        assert!(stats.hits >= 2);
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let h = start(ServeConfig::default());
        let err = h.vectorize("void f( {{{").unwrap_err();
        assert!(matches!(err, ServeError::Frontend(_)));
        assert_eq!(h.metrics().errors, 1);
    }

    #[test]
    fn daemon_speaks_json_lines() {
        let h = start(ServeConfig::default());
        let src_json = Json::from(SRC).render();
        let input = format!(
            "{{\"op\":\"vectorize\",\"id\":\"r1\",\"source\":{src_json}}}\n\
             {{\"op\":\"stats\"}}\n\
             not json\n\
             {{\"op\":\"shutdown\",\"id\":\"bye\"}}\n\
             {{\"op\":\"stats\"}}\n"
        );
        let mut out = Vec::new();
        run_daemon(&h, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "daemon must stop at shutdown, then emit one final_stats line"
        );

        let r1 = Json::parse(lines[0]).unwrap();
        assert_eq!(r1.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(r1.get("ok").unwrap().as_bool(), Some(true));
        assert!(r1
            .get("source")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("#pragma clang loop"));
        assert_eq!(r1.get("loops").unwrap().as_array().unwrap().len(), 2);

        let stats = Json::parse(lines[1]).unwrap();
        assert_eq!(
            stats
                .get("stats")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );

        let bad = Json::parse(lines[2]).unwrap();
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));

        let bye = Json::parse(lines[3]).unwrap();
        assert_eq!(bye.get("shutdown").unwrap().as_bool(), Some(true));
        assert_eq!(bye.get("id").unwrap().as_str(), Some("bye"));

        // Graceful drain: the last line is the session's final counters.
        let fin = Json::parse(lines[4]).unwrap();
        let stats = fin.get("final_stats").expect("final_stats line");
        assert_eq!(stats.get("requests").unwrap().as_f64(), Some(1.0));
        assert!(stats.get("uptime_us").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            h.inner.batcher.is_shut_down(),
            "daemon exit must drain the worker pool"
        );
    }

    #[test]
    fn daemon_drains_and_reports_on_eof() {
        // No shutdown request: the client just closes stdin (Ctrl-D).
        let h = start(ServeConfig::default());
        let src_json = Json::from(SRC).render();
        let input = format!("{{\"op\":\"vectorize\",\"source\":{src_json}}}\n");
        let mut out = Vec::new();
        run_daemon(&h, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 2, "response + final_stats");
        let fin = Json::parse(lines[1]).unwrap();
        let stats = fin.get("final_stats").expect("EOF must emit final stats");
        assert_eq!(stats.get("loops_served").unwrap().as_f64(), Some(2.0));
        assert!(
            h.inner.batcher.is_shut_down(),
            "EOF must shut the worker pool down, not just drop it"
        );
    }

    #[test]
    fn identical_loop_shapes_dedupe_within_one_request() {
        // Two alpha-renamed copies of the same loop: one model decision,
        // one cache entry.
        let src = "float a[64]; float b[64]; float c[64]; float d[64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i];
    }
    for (int k = 0; k < n; k++) {
        c[k] = d[k];
    }
}";
        let h = start(ServeConfig::default());
        let out = h.vectorize(src).unwrap();
        assert_eq!(out.loops.len(), 2);
        assert_eq!(h.cache_stats().insertions, 1, "renamed loops share a key");
        assert_eq!(out.loops[0].vf, out.loops[1].vf);
        assert_eq!(out.loops[0].if_, out.loops[1].if_);
    }

    /// A model slow enough that a second request on the same key arrives
    /// while the first is still in flight; counts the rows it embeds.
    struct SlowStub {
        embed: EmbedConfig,
        target: TargetConfig,
        rows_seen: std::sync::atomic::AtomicU64,
    }

    impl DecisionModel for SlowStub {
        fn embed_config(&self) -> &EmbedConfig {
            &self.embed
        }

        fn target(&self) -> &TargetConfig {
            &self.target
        }

        fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
            self.rows_seen
                .fetch_add(samples.len() as u64, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(300));
            samples.iter().map(|s| (s.len() % 3, 1)).collect()
        }
    }

    #[test]
    fn concurrent_identical_misses_coalesce_into_one_forward() {
        let model = Arc::new(SlowStub {
            embed: EmbedConfig::fast(),
            target: TargetConfig::i7_8559u(),
            rows_seen: std::sync::atomic::AtomicU64::new(0),
        });
        // Batch size 1 so each submission is its own forward: without
        // single-flight the second request would run a second forward.
        let h = ServeHandle::start(
            Arc::clone(&model) as Arc<dyn DecisionModel>,
            ServeConfig::default().with_batch_size(1).with_workers(2),
        );
        let sample = PathSample {
            starts: vec![1, 2],
            paths: vec![3, 4],
            ends: vec![5, 6],
        };
        let (first, second) = std::thread::scope(|scope| {
            let a = scope.spawn(|| h.decide_sample(&sample).unwrap());
            // Stagger so the leader is in flight (the model sleeps 300ms).
            std::thread::sleep(Duration::from_millis(100));
            let b = scope.spawn(|| h.decide_sample(&sample).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(first.0, second.0, "coalesced requests must agree");
        assert_eq!(
            model.rows_seen.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "the identical concurrent miss must not embed again"
        );
        assert_eq!(h.metrics().dedup_waits, 1);
    }

    #[test]
    fn requests_after_shutdown_fail_fast() {
        let h = start(ServeConfig::default());
        h.shutdown();
        h.shutdown(); // idempotent
        let t0 = std::time::Instant::now();
        let err = h.vectorize(SRC).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "post-shutdown requests must not wait out the decision timeout"
        );
    }

    #[test]
    fn restored_cache_serves_hits_and_counts() {
        let h = start(ServeConfig::default());
        let out = h.vectorize(SRC).unwrap();
        let snap = h.cache_snapshot();
        assert!(!snap.is_empty());

        // A second handle seeded from the snapshot serves the same file
        // entirely from cache — no model forward at all.
        let h2 = start(ServeConfig::default());
        assert_eq!(h2.restore_cache(snap.clone()), snap.len());
        let again = h2.vectorize(SRC).unwrap();
        assert_eq!(again.source, out.source, "restored decisions must agree");
        assert!(again.loops.iter().all(|l| l.cached));
        let m = h2.metrics();
        assert_eq!(m.entries_restored, snap.len() as u64);
        assert_eq!(m.batches, 0, "restored entries must skip the model");

        h2.record_invalidated_entries(9);
        assert_eq!(h2.metrics().entries_invalidated_by_version, 9);
    }

    #[test]
    fn error_responses_echo_the_request_id() {
        let h = start(ServeConfig::default());
        for bad in [
            r#"{"op":"vectorize","id":"r7"}"#,
            r#"{"op":"explode","id":"r7"}"#,
            r#"{"op":"vectorize","id":"r7","source":"void f( {{{"}"#,
        ] {
            let (resp, keep) = h.handle_line(bad);
            assert!(keep);
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(
                v.get("id").unwrap().as_str(),
                Some("r7"),
                "error response dropped the id: {resp}"
            );
        }
        // Unparsable lines genuinely have no id to echo.
        let (resp, _) = h.handle_line("not json");
        assert!(Json::parse(&resp).unwrap().get("id").is_none());
    }

    #[test]
    fn stats_json_has_the_full_surface() {
        let h = start(ServeConfig::default());
        h.vectorize(SRC).unwrap();
        let s = h.stats_json();
        for path in [
            vec!["requests"],
            vec!["uptime_us"],
            vec!["cache", "hits"],
            vec!["cache", "hit_rate"],
            vec!["cache", "occupancy"],
            vec!["cache", "entries_restored"],
            vec!["cache", "entries_invalidated_by_version"],
            vec!["batch", "mean_batch"],
            vec!["latency", "p99_us"],
            vec!["latency", "histogram_us"],
            vec!["ops"],
        ] {
            let mut v = &s;
            for k in path.iter() {
                v = v
                    .get(k)
                    .unwrap_or_else(|| panic!("missing stats key {path:?}"));
            }
        }
        // The histogram dump carries the latency observation.
        let buckets = s
            .get("latency")
            .unwrap()
            .get("histogram_us")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(!buckets.is_empty(), "one request must fill one bucket");
        let total: f64 = buckets
            .iter()
            .map(|b| b.as_array().unwrap()[1].as_f64().unwrap())
            .sum();
        assert_eq!(total, 1.0);
    }

    /// Plain map-backed shared store for exercising the two-level path.
    #[derive(Default)]
    struct MapStore(Mutex<HashMap<(u64, u64), (usize, usize)>>);

    impl SharedDecisionStore for MapStore {
        fn get(&self, ckpt: u64, key: u64) -> Option<(usize, usize)> {
            self.0.lock().get(&(ckpt, key)).copied()
        }

        fn put(&self, ckpt: u64, key: u64, pair: (usize, usize)) {
            self.0.lock().insert((ckpt, key), pair);
        }
    }

    #[test]
    fn shared_store_spans_handles_of_one_checkpoint_only() {
        let store: Arc<MapStore> = Arc::new(MapStore::default());
        let shared = |ckpt: u64| Some((ckpt, Arc::clone(&store) as Arc<dyn SharedDecisionStore>));
        let h1 =
            ServeHandle::start_with_store(Arc::new(Stub::new()), ServeConfig::default(), shared(7));
        let out = h1.vectorize(SRC).unwrap();
        assert!(h1.metrics().shared_publishes > 0, "leader must publish");

        // A second handle under the same checkpoint hash serves the
        // whole file from the shared store: zero model forwards, and
        // the decisions are bitwise identical.
        let h2 =
            ServeHandle::start_with_store(Arc::new(Stub::new()), ServeConfig::default(), shared(7));
        let again = h2.vectorize(SRC).unwrap();
        assert_eq!(again.source, out.source);
        assert!(again.loops.iter().all(|l| l.cached));
        let m = h2.metrics();
        assert!(m.shared_hits > 0);
        assert_eq!(m.batches, 0, "shared hits must skip the model");

        // A different checkpoint hash must never see those entries.
        let h3 =
            ServeHandle::start_with_store(Arc::new(Stub::new()), ServeConfig::default(), shared(9));
        h3.vectorize(SRC).unwrap();
        let m = h3.metrics();
        assert_eq!(m.shared_hits, 0, "cross-checkpoint leak");
        assert!(m.batches > 0, "other checkpoint must recompute");
    }

    #[test]
    fn warm_replay_decides_counts_and_heats_the_cache() {
        let h = start(ServeConfig::default());
        let out = h.vectorize(SRC).unwrap();
        let samples = h.warm_samples();
        assert_eq!(samples.len(), 2, "both misses must be retained");

        let h2 = start(ServeConfig::default());
        let replayed = h2.warm_replay(&samples);
        assert_eq!(replayed, samples.len());
        assert_eq!(h2.metrics().warmup_replayed, replayed as u64);
        // The replayed keys now serve the original file entirely warm.
        let warm = h2.vectorize(SRC).unwrap();
        assert!(warm.loops.iter().all(|l| l.cached));
        assert_eq!(warm.source, out.source);

        // Replay against a drained handle reports zero, not a hang.
        let h3 = start(ServeConfig::default());
        h3.shutdown();
        assert_eq!(h3.warm_replay(&samples), 0);
    }

    #[test]
    fn prometheus_exposition_covers_the_serve_registry() {
        let h = start(ServeConfig::default());
        h.vectorize(SRC).unwrap();
        let text = h.render_prometheus("");
        assert!(text.contains("serve_requests_total 1"));
        assert!(text.contains("serve_request_latency_us_count 1"));
        let labeled = h.render_prometheus("model=\"m\"");
        assert!(labeled.contains("serve_requests_total{model=\"m\"} 1"));
    }
}
