//! The attention-based code encoder (code2vec's network half).

use std::collections::HashMap;

use nvc_nn::{Graph, NodeId, ParamId, ParamStore, Segments, Tensor};

use crate::vocab::PathSample;

/// Errors surfaced by the encoder's batched entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedError {
    /// [`CodeEmbedder::forward_batch`] was handed an empty sample slice.
    /// Batched callers (the serve flush loop, rollout collection) must
    /// skip empty flushes instead of crashing a worker on this.
    EmptyBatch,
}

impl std::fmt::Display for EmbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbedError::EmptyBatch => write!(f, "forward_batch needs at least one sample"),
        }
    }
}

impl std::error::Error for EmbedError {}

/// Hyperparameters of the embedding network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbedConfig {
    /// Rows of the terminal-token embedding table.
    pub token_buckets: usize,
    /// Rows of the path embedding table.
    pub path_buckets: usize,
    /// Terminal embedding width.
    pub token_dim: usize,
    /// Path embedding width.
    pub path_dim: usize,
    /// Code-vector width (the observation the agent sees).
    pub code_dim: usize,
    /// Maximum path contexts per loop.
    pub max_paths: usize,
}

impl EmbedConfig {
    /// The paper's configuration: a 340-feature code vector (§3.1).
    pub fn paper() -> Self {
        EmbedConfig {
            token_buckets: 2048,
            path_buckets: 4096,
            token_dim: 128,
            path_dim: 128,
            code_dim: 340,
            max_paths: 100,
        }
    }

    /// A small configuration for tests and fast experimentation.
    pub fn fast() -> Self {
        EmbedConfig {
            token_buckets: 256,
            path_buckets: 512,
            token_dim: 16,
            path_dim: 16,
            code_dim: 32,
            max_paths: 24,
        }
    }

    /// Width of one concatenated path-context row.
    pub fn context_width(&self) -> usize {
        2 * self.token_dim + self.path_dim
    }
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The code2vec-style encoder. Owns parameter handles; weights live in the
/// shared [`ParamStore`] so the PPO update trains them end-to-end.
#[derive(Debug, Clone)]
pub struct CodeEmbedder {
    cfg: EmbedConfig,
    token_table: ParamId,
    path_table: ParamId,
    w_context: ParamId,
    attention: ParamId,
}

impl CodeEmbedder {
    /// Registers the encoder's parameters in `store`.
    pub fn new(store: &mut ParamStore, cfg: &EmbedConfig) -> Self {
        let token_table =
            store.param_uniform("embed.tokens", cfg.token_buckets, cfg.token_dim, 0.25);
        let path_table = store.param_uniform("embed.paths", cfg.path_buckets, cfg.path_dim, 0.25);
        let w_context = store.param_xavier("embed.w", cfg.context_width(), cfg.code_dim);
        let attention = store.param_xavier("embed.attn", cfg.code_dim, 1);
        CodeEmbedder {
            cfg: cfg.clone(),
            token_table,
            path_table,
            w_context,
            attention,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &EmbedConfig {
        &self.cfg
    }

    /// Terminal table handle (for tests/inspection).
    pub fn token_table(&self) -> ParamId {
        self.token_table
    }

    /// Path table handle.
    pub fn path_table(&self) -> ParamId {
        self.path_table
    }

    /// Context transform handle.
    pub fn context_weight(&self) -> ParamId {
        self.w_context
    }

    /// Attention vector handle.
    pub fn attention_vector(&self) -> ParamId {
        self.attention
    }

    /// Encodes one loop sample into a `1×code_dim` vector node.
    ///
    /// Empty samples (loops with fewer than two leaves) embed to zero.
    ///
    /// The embedding tables are never cloned onto the tape: the per-path
    /// rows are gathered straight from the parameter store
    /// ([`Graph::gather_param_rows`]), which removes the multi-megabyte
    /// table copy each sample's graph used to start with. Gradients still
    /// scatter-add into the tables as before. The small dense parameters
    /// (`W`, attention) are memoized per graph, so a batched forward
    /// reads them once, not once per sample.
    pub fn forward(&self, g: &mut Graph<'_>, sample: &PathSample) -> NodeId {
        if sample.is_empty() {
            return g.input(Tensor::zeros(1, self.cfg.code_dim));
        }
        let w = g.param(self.w_context);
        let attn = g.param(self.attention);

        let starts = g.gather_param_rows(self.token_table, &sample.starts); // n × dt
        let mids = g.gather_param_rows(self.path_table, &sample.paths); // n × dp
        let ends = g.gather_param_rows(self.token_table, &sample.ends); // n × dt
        let ctx = g.concat_cols(&[starts, mids, ends]); // n × (2dt+dp)
        let proj = g.matmul(ctx, w); // n × code
        let c = g.tanh(proj);

        let scores = g.matmul(c, attn); // n × 1
        let scores_row = g.transpose(scores); // 1 × n
        let alpha = g.softmax_rows(scores_row); // 1 × n
        g.matmul(alpha, c) // 1 × code
    }

    /// Encodes a batch of samples into one `n × code_dim` node (row `i`
    /// is exactly [`CodeEmbedder::forward`] of `samples[i]`, bitwise).
    /// Batched consumers (PPO rollout collection and minibatches, the
    /// serving layer's flush batches, the NNS/ranker labelling passes)
    /// stack here and run downstream networks once over all rows.
    ///
    /// Context counts are ragged, so the batch runs as a **segmented**
    /// forward rather than a per-sample loop: every sample's token rows
    /// are pulled in one [`Graph::gather_param_rows`] (interleaved
    /// per-sample so table gradients scatter in the per-sample order),
    /// the whole concatenated context matrix goes through one projection
    /// + `tanh`, and attention is one `segment_softmax_rows` +
    /// `segment_weighted_sum` over a [`Segments`] row partition. That
    /// single stacked `N×context_width · context_width×code_dim`
    /// projection is the flop-dominant matmul of the whole system, and
    /// the segmented layout makes it row-parallel: with
    /// `NvConfig::matmul_threads > 1` the `nvc-nn` kernel shards its
    /// output rows across the persistent kernel worker pool (and runs
    /// 8-wide unrolled inner loops) while keeping every row's
    /// accumulation order — and thus bitwise parity — intact. The
    /// segment kernels fix their reduction order per segment, so values
    /// *and* parameter gradients stay bitwise-identical to the
    /// per-sample spelling ([`CodeEmbedder::forward_batch_reference`],
    /// enforced by parity tests).
    ///
    /// Empty samples embed to zero rows, exactly as in [`forward`].
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::EmptyBatch`] when `samples` is empty (a
    /// zero-row observation matrix has no meaning downstream).
    ///
    /// [`forward`]: CodeEmbedder::forward
    pub fn forward_batch(
        &self,
        g: &mut Graph<'_>,
        samples: &[&PathSample],
    ) -> Result<NodeId, EmbedError> {
        if samples.is_empty() {
            return Err(EmbedError::EmptyBatch);
        }
        let segs = Segments::from_lens(samples.iter().map(|s| s.len()));
        let total = segs.total_rows();
        if total == 0 {
            // All samples empty: the whole batch embeds to zero and no
            // parameter is touched (mirrors `forward`'s empty case).
            return Ok(g.input(Tensor::zeros(samples.len(), self.cfg.code_dim)));
        }

        // One token gather for starts AND ends, interleaved per sample
        // (sample 0 starts, sample 0 ends, sample 1 starts, …): this is
        // the exact order the per-sample tape scatters token-table
        // gradients in, which keeps repeated table rows bitwise-identical
        // under f32 accumulation. Paths go in one gather of their own.
        let mut tok_idx = Vec::with_capacity(2 * total);
        let mut path_idx = Vec::with_capacity(total);
        let mut start_rows = Vec::with_capacity(total);
        let mut end_rows = Vec::with_capacity(total);
        for s in samples {
            let base = tok_idx.len();
            let n = s.len();
            tok_idx.extend_from_slice(&s.starts);
            tok_idx.extend_from_slice(&s.ends);
            path_idx.extend_from_slice(&s.paths);
            start_rows.extend(base..base + n);
            end_rows.extend(base + n..base + 2 * n);
        }

        let w = g.param(self.w_context);
        let attn = g.param(self.attention);
        let tok = g.gather_param_rows(self.token_table, &tok_idx); // 2N × dt
        let mids = g.gather_param_rows(self.path_table, &path_idx); // N × dp
        let starts = g.gather_rows(tok, &start_rows); // N × dt
        let ends = g.gather_rows(tok, &end_rows); // N × dt
        let ctx = g.concat_cols(&[starts, mids, ends]); // N × (2dt+dp)
        let proj = g.segment_matmul(ctx, w, &segs); // N × code
        let c = g.tanh(proj);
        let scores = g.segment_matmul(c, attn, &segs); // N × 1
        let alpha = g.segment_softmax_rows(scores, &segs); // N × 1
        Ok(g.segment_weighted_sum(alpha, c, &segs)) // n × code
    }

    /// Encodes one row per input sample — the deployed batched entry
    /// point rollout collection, batched greedy inference, and the
    /// supervised labelling passes share. Distinct samples (content
    /// equality) embed **once** through the segmented
    /// [`CodeEmbedder::forward_batch`] and a row gather fans the
    /// embeddings back out to their batch positions: a rollout or flush
    /// batch full of repeated loop shapes pays for each shape once.
    ///
    /// Row `i`'s value is bitwise-identical to
    /// [`CodeEmbedder::forward`] of `rows[i]`. Gradients flow through
    /// the gather, so repeated rows scatter-add into one embedding chain
    /// — the same gradient-carrying-gather contract the PPO minibatch
    /// dedup established.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::EmptyBatch`] when `rows` is empty.
    pub fn forward_rows(
        &self,
        g: &mut Graph<'_>,
        rows: &[&PathSample],
    ) -> Result<NodeId, EmbedError> {
        if rows.is_empty() {
            return Err(EmbedError::EmptyBatch);
        }
        let mut unique: Vec<&PathSample> = Vec::new();
        let mut slot: HashMap<&PathSample, usize> = HashMap::new();
        let row_of: Vec<usize> = rows
            .iter()
            .map(|&s| {
                *slot.entry(s).or_insert_with(|| {
                    unique.push(s);
                    unique.len() - 1
                })
            })
            .collect();
        let uobs = self.forward_batch(g, &unique)?;
        if unique.len() == rows.len() {
            // Nothing repeated: the stacked node already is the answer.
            return Ok(uobs);
        }
        Ok(g.gather_rows(uobs, &row_of))
    }

    /// The per-sample spelling of [`CodeEmbedder::forward_batch`]: one
    /// [`CodeEmbedder::forward`] chain per sample, stacked with
    /// `concat_rows`. Kept as the parity reference the segmented path is
    /// tested against (values and gradients, bitwise) and as the baseline
    /// the `ext_train_throughput` encoder gate measures.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::EmptyBatch`] when `samples` is empty.
    pub fn forward_batch_reference(
        &self,
        g: &mut Graph<'_>,
        samples: &[&PathSample],
    ) -> Result<NodeId, EmbedError> {
        if samples.is_empty() {
            return Err(EmbedError::EmptyBatch);
        }
        let rows: Vec<NodeId> = samples.iter().map(|s| self.forward(g, s)).collect();
        Ok(if rows.len() == 1 {
            rows[0]
        } else {
            g.concat_rows(&rows)
        })
    }

    /// Convenience: encodes a sample and returns the plain vector (no
    /// gradients), for inference-time consumers like NNS and decision
    /// trees.
    pub fn encode(&self, store: &ParamStore, sample: &PathSample) -> Vec<f32> {
        let mut g = Graph::new(store);
        let node = self.forward(&mut g, sample);
        g.value(node).data().to_vec()
    }

    /// Encodes a whole batch in one segmented forward (no gradients) —
    /// the batched counterpart of [`CodeEmbedder::encode`] that the
    /// NNS/decision-tree/ranker labelling passes use instead of looping
    /// `encode` per sample. Row `i` equals `encode(samples[i])` bitwise;
    /// repeated samples embed once ([`CodeEmbedder::forward_rows`]).
    pub fn encode_batch(&self, store: &ParamStore, samples: &[&PathSample]) -> Vec<Vec<f32>> {
        if samples.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::new(store);
        let node = self.forward_rows(&mut g, samples).expect("non-empty batch");
        let v = g.value(node);
        (0..samples.len()).map(|r| v.row(r).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::parse_statement;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn sample(src: &str, cfg: &EmbedConfig) -> PathSample {
        PathSample::from_stmt(&parse_statement(src).unwrap(), cfg)
    }

    /// A synthetic sample with `n` contexts drawn from `rng`. Small table
    /// sizes (the fast config) make repeated indices — the case where
    /// scatter-order bugs would surface — common.
    fn random_sample(n: usize, cfg: &EmbedConfig, rng: &mut ChaCha8Rng) -> PathSample {
        PathSample {
            starts: (0..n)
                .map(|_| rng.gen_range(0..cfg.token_buckets))
                .collect(),
            paths: (0..n).map(|_| rng.gen_range(0..cfg.path_buckets)).collect(),
            ends: (0..n)
                .map(|_| rng.gen_range(0..cfg.token_buckets))
                .collect(),
        }
    }

    /// Runs a full forward + backward of `samples` through `build`,
    /// returning the stacked values and all parameter gradients. The loss
    /// (`Σ out ⊙ sel` for a fixed random `sel`) makes every output row
    /// contribute a distinct gradient.
    #[allow(clippy::type_complexity)]
    fn values_and_grads(
        store: &ParamStore,
        samples: &[&PathSample],
        sel: &Tensor,
        build: impl Fn(&mut Graph<'_>, &[&PathSample]) -> NodeId,
    ) -> (Tensor, std::collections::HashMap<ParamId, Tensor>) {
        let mut g = Graph::new(store);
        let out = build(&mut g, samples);
        let seln = g.input(sel.clone());
        let prod = g.mul_elem(out, seln);
        let loss = g.sum_all(prod);
        g.backward(loss);
        (g.value(out).clone(), g.param_grads())
    }

    #[test]
    fn paper_config_is_340_dim() {
        assert_eq!(EmbedConfig::paper().code_dim, 340);
        assert_eq!(EmbedConfig::paper().context_width(), 384);
    }

    #[test]
    fn encode_returns_code_dim_vector() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v = e.encode(&store, &sample("for (int i=0;i<n;i++) { a[i] = 0; }", &cfg));
        assert_eq!(v.len(), cfg.code_dim);
    }

    #[test]
    fn empty_sample_encodes_to_zero() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v = e.encode(
            &store,
            &PathSample {
                starts: vec![],
                paths: vec![],
                ends: vec![],
            },
        );
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn attention_weights_depend_on_content() {
        // Two structurally different loops must produce different vectors
        // under the same (random) weights.
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v1 = e.encode(
            &store,
            &sample("for (int i=0;i<n;i++) { s += a[i]; }", &cfg),
        );
        let v2 = e.encode(
            &store,
            &sample("for (int i=0;i<n;i++) { a[i] = b[2*i] * c[i]; }", &cfg),
        );
        let dist: f32 = v1
            .iter()
            .zip(v2.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(dist > 1e-6, "different loops should embed differently");
    }

    #[test]
    fn forward_batch_on_empty_slice_is_an_error_not_a_panic() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let mut g = Graph::new(&store);
        assert_eq!(e.forward_batch(&mut g, &[]), Err(EmbedError::EmptyBatch));
        assert_eq!(
            e.forward_batch_reference(&mut g, &[]),
            Err(EmbedError::EmptyBatch)
        );
        assert!(e.encode_batch(&store, &[]).is_empty());
        assert_eq!(
            EmbedError::EmptyBatch.to_string(),
            "forward_batch needs at least one sample"
        );
    }

    #[test]
    fn all_empty_batch_embeds_to_zero_rows() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let empty = PathSample {
            starts: vec![],
            paths: vec![],
            ends: vec![],
        };
        let mut g = Graph::new(&store);
        let out = e.forward_batch(&mut g, &[&empty, &empty]).unwrap();
        assert_eq!(g.value(out).shape(), (2, cfg.code_dim));
        assert!(g.value(out).data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn encode_batch_rows_match_encode() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(7);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut samples: Vec<PathSample> = [4usize, 1, 0, 11]
            .iter()
            .map(|&n| random_sample(n, &cfg, &mut rng))
            .collect();
        // A repeated shape exercises the dedup + fan-out path.
        samples.push(samples[0].clone());
        let refs: Vec<&PathSample> = samples.iter().collect();
        let batched = e.encode_batch(&store, &refs);
        for (s, row) in samples.iter().zip(batched.iter()) {
            assert_eq!(row, &e.encode(&store, s), "encode_batch row diverged");
        }
    }

    /// The tentpole invariant at the encoder level: the segmented batched
    /// forward must be bitwise-identical to the per-sample reference —
    /// stacked values AND the gradients of all four parameters (both
    /// embedding tables, the projection, the attention vector) — across
    /// ragged context counts including empty, single-context and
    /// max-width samples.
    #[test]
    fn segmented_forward_batch_matches_reference_bitwise() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(13);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for lens in [
            vec![3usize, 7, 1],
            vec![1],
            vec![cfg.max_paths, 1, cfg.max_paths],
            vec![5, 0, 2, 0, 9],
        ] {
            let samples: Vec<PathSample> = lens
                .iter()
                .map(|&n| random_sample(n, &cfg, &mut rng))
                .collect();
            let refs: Vec<&PathSample> = samples.iter().collect();
            let sel = Tensor::from_vec(
                refs.len(),
                cfg.code_dim,
                (0..refs.len() * cfg.code_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let (ref_vals, ref_grads) = values_and_grads(&store, &refs, &sel, |g, ss| {
                e.forward_batch_reference(g, ss).unwrap()
            });
            let (seg_vals, seg_grads) =
                values_and_grads(&store, &refs, &sel, |g, ss| g_forward(&e, g, ss));
            assert_eq!(ref_vals, seg_vals, "values diverged for lens {lens:?}");
            for (name, p) in [
                ("token table", e.token_table()),
                ("path table", e.path_table()),
                ("projection", e.context_weight()),
                ("attention", e.attention_vector()),
            ] {
                assert_eq!(
                    ref_grads.get(&p),
                    seg_grads.get(&p),
                    "{name} gradient diverged for lens {lens:?}"
                );
            }
        }
    }

    fn g_forward(e: &CodeEmbedder, g: &mut Graph<'_>, ss: &[&PathSample]) -> NodeId {
        e.forward_batch(g, ss).unwrap()
    }

    proptest! {
        /// Property form of the parity bar: arbitrary ragged batches
        /// (lengths 0..=max_paths, duplicate indices likely) are
        /// bitwise-identical between the segmented and per-sample
        /// spellings — values and all parameter gradients.
        #[test]
        fn prop_segmented_encode_is_bitwise_identical(
            n_samples in 1usize..6,
            shape_seed in 0u64..10_000,
        ) {
            let cfg = EmbedConfig::fast();
            let mut store = ParamStore::new(23);
            let e = CodeEmbedder::new(&mut store, &cfg);
            let mut rng = ChaCha8Rng::seed_from_u64(shape_seed);
            let samples: Vec<PathSample> = (0..n_samples)
                .map(|i| {
                    // Force the edge widths into the mix: a 1-context
                    // sample and a max-width sample appear regularly.
                    let n = match (shape_seed as usize + i) % 5 {
                        0 => 1,
                        1 => cfg.max_paths,
                        _ => rng.gen_range(0..=cfg.max_paths),
                    };
                    random_sample(n, &cfg, &mut rng)
                })
                .collect();
            let refs: Vec<&PathSample> = samples.iter().collect();
            let sel = Tensor::from_vec(
                refs.len(),
                cfg.code_dim,
                (0..refs.len() * cfg.code_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let (ref_vals, ref_grads) = values_and_grads(&store, &refs, &sel, |g, ss| {
                e.forward_batch_reference(g, ss).unwrap()
            });
            let (seg_vals, seg_grads) =
                values_and_grads(&store, &refs, &sel, |g, ss| g_forward(&e, g, ss));
            prop_assert_eq!(ref_vals, seg_vals);
            for p in [
                e.token_table(),
                e.path_table(),
                e.context_weight(),
                e.attention_vector(),
            ] {
                prop_assert_eq!(ref_grads.get(&p), seg_grads.get(&p));
            }
        }
    }

    #[test]
    fn embeddings_are_bounded_by_tanh() {
        // The code vector is a convex combination of tanh outputs.
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v = e.encode(
            &store,
            &sample("for (int i=0;i<n;i++) { a[i] = b[i]*c[i]+d[i]; }", &cfg),
        );
        assert!(v.iter().all(|x| x.abs() <= 1.0));
    }
}
