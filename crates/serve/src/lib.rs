//! `nvc-serve` — the long-lived vectorization service.
//!
//! The paper's end product is an inference artifact: "once the RL agent is
//! trained, it can be plugged in as is for inference without further
//! retraining" (§3.5). A build farm does not call a CLI once per file — it
//! keeps a daemon warm and streams requests at it. This crate is that
//! daemon:
//!
//! * [`cache`] — a **sharded LRU decision cache** keyed by a hash of the
//!   loop's normalized path-context sample ([`sample_key`]). Alpha-renamed
//!   copies of a loop produce the *same* sample (the §3.2 normalization),
//!   so repeated loop shapes across a codebase skip embedding + policy
//!   entirely;
//! * [`batch`] — a **batching layer**: concurrent cache misses coalesce
//!   into one embedding/policy forward pass over a worker pool (bounded
//!   queue, configurable batch size and flush deadline);
//! * [`metrics`] — requests served, cache hit rate, p50/p99 latency
//!   histograms, per-shard occupancy — exported as JSON;
//! * [`protocol`] + [`service`] — a JSON-lines request/response protocol
//!   (stdin/stdout daemon mode via [`run_daemon`]) plus the in-process
//!   [`ServeHandle`] API;
//! * [`json`] — the minimal JSON reader/writer the protocol uses (the
//!   offline dependency set has no JSON crate);
//! * [`lines`] — the one event-driven TCP line server ([`serve_lines`])
//!   every network daemon of the stack (hub, registry) runs behind a
//!   [`LineService`].
//!
//! # Protocol
//!
//! One JSON object per line on stdin, one per line on stdout:
//!
//! ```text
//! → {"op":"vectorize","id":"r1","source":"void f(int n){for(int i=0;i<n;i++){...}}"}
//! ← {"id":"r1","ok":true,"source":"...#pragma clang loop...","loops":[
//!      {"function":"f","line":1,"vf":8,"if":2,"cached":false}],"latency_us":412}
//! → {"op":"stats"}
//! ← {"ok":true,"stats":{"requests":1,...,"cache":{"hits":0,...}}}
//! → {"op":"shutdown"}
//! ← {"ok":true,"shutdown":true}
//! ```
//!
//! # In-process usage
//!
//! The model side is abstracted as [`DecisionModel`] (implemented by
//! `neurovectorizer::NeuroVectorizer`); the service only needs batched
//! greedy decisions:
//!
//! ```
//! use std::sync::Arc;
//! use nvc_embed::{EmbedConfig, PathSample};
//! use nvc_machine::TargetConfig;
//! use nvc_serve::{DecisionModel, ServeConfig, ServeHandle};
//!
//! struct Fixed(EmbedConfig, TargetConfig);
//! impl DecisionModel for Fixed {
//!     fn embed_config(&self) -> &EmbedConfig { &self.0 }
//!     fn target(&self) -> &TargetConfig { &self.1 }
//!     fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
//!         samples.iter().map(|_| (2, 1)).collect()
//!     }
//! }
//!
//! let model = Arc::new(Fixed(EmbedConfig::fast(), TargetConfig::i7_8559u()));
//! let handle = ServeHandle::start(model, ServeConfig::default());
//! let out = handle
//!     .vectorize("float a[64]; float b[64];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i]; } }")
//!     .unwrap();
//! assert!(out.source.contains("#pragma clang loop"));
//! ```

pub mod batch;
pub mod cache;
pub mod json;
pub mod lines;
pub mod metrics;
pub mod protocol;
pub mod service;

use nvc_embed::{EmbedConfig, PathSample};
use nvc_machine::TargetConfig;

pub use cache::{CacheStats, ShardedLruCache};
pub use json::Json;
pub use lines::{serve_lines, LineServer, LineServerConfig, LineService};
pub use metrics::{LatencyHistogram, Metrics, MetricsSnapshot};
pub use protocol::{LoopReport, Request};
pub use service::{run_daemon, ServeError, ServeHandle, VectorizeOutput};

/// The model half of the service: batched greedy `(vf_idx, if_idx)`
/// decisions over path-context samples. `neurovectorizer::NeuroVectorizer`
/// implements this; tests use cheap stubs.
pub trait DecisionModel: Send + Sync {
    /// The embedding configuration requests must be hashed/embedded with.
    fn embed_config(&self) -> &EmbedConfig;

    /// The target whose action space decisions index into.
    fn target(&self) -> &TargetConfig;

    /// Greedy action pairs for a batch of samples, one per input, in
    /// order. Must be deterministic: the cache stores these results.
    fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)>;
}

/// A decision store shared *across* [`ServeHandle`]s — across A/B sides
/// of a hub, across hot-swap reloads, and (through `nvc-fleet`'s
/// content store + gossip transfer) across peer nodes.
///
/// The per-handle sharded LRU stays the first-level cache; a handle
/// built with [`ServeHandle::start_with_store`] probes this store on an
/// LRU miss and publishes every leader-computed decision into it. Keys
/// are content addresses `(checkpoint_hash, sample_key)`: a decision is
/// a pure function of both, so an entry is valid wherever that exact
/// checkpoint serves, and a store shared by models with *different*
/// checkpoints can never leak a decision between them.
pub trait SharedDecisionStore: Send + Sync {
    /// Looks up the decision for `sample_key` under `checkpoint_hash`.
    fn get(&self, checkpoint_hash: u64, sample_key: u64) -> Option<(usize, usize)>;

    /// Publishes a computed decision. Implementations must be
    /// last-write-wins idempotent: decisions are deterministic per
    /// `(checkpoint_hash, sample_key)`, so concurrent publishes agree.
    fn put(&self, checkpoint_hash: u64, sample_key: u64, decision: (usize, usize));
}

/// Tuning knobs for the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Total decision-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Number of independent cache shards (clamped to ≥ 1).
    pub cache_shards: usize,
    /// Maximum loops coalesced into one model forward pass (≥ 1).
    pub batch_size: usize,
    /// Maximum pending (not yet batched) loops; when full, request
    /// threads block — backpressure instead of unbounded memory growth.
    pub queue_capacity: usize,
    /// How long a worker waits for a batch to fill before flushing a
    /// partial one, in microseconds.
    pub flush_deadline_us: u64,
    /// Worker threads running model forward passes (≥ 1).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 65_536,
            cache_shards: 16,
            batch_size: 32,
            queue_capacity: 4096,
            flush_deadline_us: 200,
            workers: 2,
        }
    }
}

impl ServeConfig {
    /// Builder-style cache capacity override (0 disables caching).
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cache_capacity = cap;
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Builder-style worker-count override.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }
}

/// Stable cache key of a normalized path-context sample.
///
/// FNV-1a over the sample's table indices with length separators; two
/// loops that normalize to the same paths (e.g. alpha-renamed copies, the
/// paper's §3.2 dataset trick) collide *intentionally* — that is the
/// cache's whole point.
pub fn sample_key(sample: &PathSample) -> u64 {
    let mut h = nvc_embed::Fnv1a::new();
    h.write(&(sample.starts.len() as u64).to_le_bytes());
    for part in [&sample.starts, &sample.paths, &sample.ends] {
        for &idx in part.iter() {
            h.write(&(idx as u64).to_le_bytes());
        }
        h.write(&0xFFFF_FFFF_FFFF_FFFEu64.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_key_is_stable_and_content_sensitive() {
        let a = PathSample {
            starts: vec![1, 2],
            paths: vec![3, 4],
            ends: vec![5, 6],
        };
        assert_eq!(sample_key(&a), sample_key(&a.clone()));
        let mut b = a.clone();
        b.ends[1] = 7;
        assert_ne!(sample_key(&a), sample_key(&b));
        // Moving an index across section boundaries must change the key.
        let c = PathSample {
            starts: vec![1, 2, 3],
            paths: vec![4],
            ends: vec![5, 6],
        };
        let d = PathSample {
            starts: vec![1, 2],
            paths: vec![3, 4],
            ends: vec![5, 6],
        };
        assert_ne!(sample_key(&c), sample_key(&d));
    }

    #[test]
    fn config_builders_clamp() {
        let c = ServeConfig::default().with_batch_size(0).with_workers(0);
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.workers, 1);
    }
}
