//! Fast-kernel ε-parity tier: the `KernelMode::Fast` kernels (fused-FMA
//! accumulators, reduction-dimension `k`-split sharding, single-pass
//! online softmax) reassociate floating-point reductions, so they are
//! *not* held to the strict tier's bitwise bar. Their contract, gated
//! here, is:
//!
//! * **ε-parity** — every finite output is within a relative bound of the
//!   strict kernel's answer, over random shapes *and* hostile payloads,
//!   at every thread count in the matrix;
//! * **special-value identity** — NaN/±∞ payloads propagate exactly as
//!   strict propagates them (same NaN-ness per element; non-finite
//!   outputs bit-identical);
//! * **driver identity** — the persistent pool's fast output (row
//!   shards and `k`-split windows) is bitwise equal to the same shard
//!   list run serially on the caller;
//! * **decision equivalence** — serving the full fixed corpus (the
//!   12-loop LLVM suite plus polybench- and mibench-lite) in fast mode
//!   yields exactly the strict decisions.
//!
//! The kernel mode is a process-global knob and fast mode is *not*
//! result-neutral, so every test here serializes on one mutex.

use neurovectorizer::{NeuroVectorizer, NvConfig, VectorizeEnv};
use nvc_datasets::{mibench, polybench, suite};
use nvc_nn::{kernels, Graph, KernelMode, ParamStore, Segments, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const THREAD_MATRIX: [usize; 4] = [1, 2, 3, 8];

/// Relative ε for fast-vs-strict parity. Fast mode reorders at most
/// `kd`-term f32 sums (8-wide lanes, `k`-split windows, FMA contraction);
/// 1e-4 of the accumulated magnitude is orders of magnitude above any
/// reassociation drift at the shapes under test while still far below
/// anything that could flip a decision.
const REL_EPS: f32 = 1e-4;
const ABS_EPS: f32 = 1e-6;

static MODE_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_mode() -> std::sync::MutexGuard<'static, ()> {
    MODE_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

fn restore_defaults() {
    kernels::set_kernel_mode(kernels::default_kernel_mode());
    kernels::set_matmul_threads(kernels::default_matmul_threads());
    kernels::set_matmul_grain(kernels::DEFAULT_MATMUL_GRAIN);
}

/// Bit patterns spanning every special f32 class (same generator as the
/// strict parity tier): ±0, quiet NaN with payload, signalling NaN, ±∞,
/// subnormals.
fn special_f32(class: u64, bits: u32) -> f32 {
    f32::from_bits(match class % 7 {
        0 => 0x0000_0000,
        1 => 0x8000_0000,
        2 => 0x7FC0_0001,
        3 => 0x7F80_0001,
        4 => 0x7F80_0000 | (bits & 0x8000_0000),
        5 => bits & 0x007F_FFFF | 1,
        _ => 0x0000_0001,
    })
}

/// Mostly ordinary values with ~25% special payloads mixed in.
fn wild_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..4usize) == 0 {
                    special_f32(rng.gen_range(0..7u64), rng.gen_range(0..u32::MAX))
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect(),
    )
}

fn finite_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// Σ_k |a_ik|·|b_kj| — the accumulated magnitude each output element saw,
/// the natural scale for a relative reassociation bound.
fn abs_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a[(i, k)].abs() * b[(k, j)].abs();
            }
        }
    }
    out
}

/// The ε-parity + special-value-identity assertion, element by element.
fn assert_eps_parity(fast: &[f32], strict: &[f32], scale: impl Fn(usize) -> f32, ctx: &str) {
    assert_eq!(fast.len(), strict.len(), "shape diverged [{ctx}]");
    for (i, (&f, &s)) in fast.iter().zip(strict.iter()).enumerate() {
        assert_eq!(
            f.is_nan(),
            s.is_nan(),
            "NaN-ness diverged at {i}: fast={f} strict={s} [{ctx}]"
        );
        if s.is_nan() {
            continue;
        }
        if !s.is_finite() || !f.is_finite() {
            assert_eq!(
                f.to_bits(),
                s.to_bits(),
                "non-finite values must propagate identically at {i}: fast={f} strict={s} [{ctx}]"
            );
            continue;
        }
        let tol = REL_EPS * scale(i) + ABS_EPS;
        assert!(
            (f - s).abs() <= tol,
            "ε-parity violated at {i}: fast={f} strict={s} tol={tol} [{ctx}]"
        );
    }
}

/// Fast vs strict for the whole deployed matmul family at one thread
/// count, over hostile payloads. Also pins fast-mode run-to-run
/// determinism (same knobs ⇒ same bits).
fn check_family_eps(m: usize, k: usize, n: usize, seed: u64, threads: usize) {
    kernels::set_matmul_threads(threads);
    let ctx = format!("m={m} k={k} n={n} seed={seed} threads={threads}");

    let a = wild_tensor(m, k, seed);
    let b = wild_tensor(k, n, seed ^ 0x5DEECE66);
    let at = wild_tensor(k, m, seed ^ 0xA5A5);
    let w = wild_tensor(n, k, seed ^ 0xC3C3);

    kernels::set_kernel_mode(KernelMode::Strict);
    let (s_mm, s_tn, s_nt) = (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&w));
    kernels::set_kernel_mode(KernelMode::Fast);
    let (f_mm, f_tn, f_nt) = (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&w));
    assert_eq!(
        f_mm.data()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u32>>(),
        a.matmul(&b)
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u32>>(),
        "fast matmul must be run-to-run deterministic [{ctx}]"
    );

    let mm_scale = abs_matmul(&a, &b);
    let tn_scale = abs_matmul(&at.transposed(), &b);
    let nt_scale = abs_matmul(&a, &w.transposed());
    assert_eps_parity(
        f_mm.data(),
        s_mm.data(),
        |i| mm_scale.data()[i],
        &format!("matmul {ctx}"),
    );
    assert_eps_parity(
        f_tn.data(),
        s_tn.data(),
        |i| tn_scale.data()[i],
        &format!("matmul_tn {ctx}"),
    );
    assert_eps_parity(
        f_nt.data(),
        s_nt.data(),
        |i| nt_scale.data()[i],
        &format!("matmul_nt {ctx}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes × hostile payloads × the full thread matrix:
    /// every fast kernel is ε-close to strict with identical
    /// special-value propagation. Small-`m` shapes with the work floor
    /// dropped make the `k`-split scheduler engage at the higher thread
    /// counts, so both fast sharding geometries are inside the net.
    #[test]
    fn prop_fast_kernels_are_eps_close_to_strict(
        m in 0usize..12,
        k in 0usize..40,
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let _guard = lock_mode();
        kernels::set_matmul_grain(1);
        for threads in THREAD_MATRIX {
            check_family_eps(m, k, n, seed, threads);
        }
        restore_defaults();
    }
}

/// The tall-thin policy shape from the paper's network (a handful of
/// output rows over a 340-wide reduction) — the shape `k`-splitting
/// exists for — spelled out so proptest sampling can never lose it.
#[test]
fn policy_shape_k_split_is_eps_close_at_every_thread_count() {
    let _guard = lock_mode();
    kernels::set_matmul_grain(1);
    for &(m, k, n) in &[(2usize, 340usize, 64usize), (1, 340, 7), (3, 256, 24)] {
        for threads in THREAD_MATRIX {
            check_family_eps(m, k, n, 4242, threads);
        }
    }
    restore_defaults();
}

/// Fast mode on the persistent pool vs a serial oracle of the same
/// shard list. Row shards reduce each output row independently, so the
/// oracle is the single-threaded product. `k`-split windows are partial
/// sums, so the oracle runs each window's slice of the product serially
/// and combines the partials in ascending window order, as the split
/// driver does. Both must match bit for bit, not just ε-close.
#[test]
fn fast_pool_matches_the_serial_shard_oracle() {
    let _guard = lock_mode();
    kernels::set_matmul_grain(1);
    kernels::set_kernel_mode(KernelMode::Fast);
    const THREADS: usize = 8;
    let bits = |ts: &[Tensor]| -> Vec<u32> {
        ts.iter()
            .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
            .collect()
    };
    // (2, 340, 64): k-split engages (8 funded workers > 2 rows) on
    // `matmul`; `matmul_tn`/`matmul_nt` row-shard. (64, 40, 24): plain
    // row sharding throughout.
    for &(m, k, n) in &[(2usize, 340usize, 64usize), (64, 40, 24)] {
        let a = wild_tensor(m, k, 99);
        let b = wild_tensor(k, n, 98);
        let at = wild_tensor(k, m, 97);
        let w = wild_tensor(n, k, 96);
        kernels::set_matmul_threads(THREADS);
        let pooled = bits(&[a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&w)]);

        kernels::set_matmul_threads(1);
        let mm = if THREADS > m {
            let per = k.div_ceil(THREADS.min(k));
            let mut out = Tensor::zeros(m, n);
            for k0 in (0..k).step_by(per) {
                let k1 = (k0 + per).min(k);
                let a_win = Tensor::from_vec(
                    m,
                    k1 - k0,
                    (0..m).flat_map(|i| a.row(i)[k0..k1].to_vec()).collect(),
                );
                let b_win = Tensor::from_vec(k1 - k0, n, b.data()[k0 * n..k1 * n].to_vec());
                let partial = a_win.matmul(&b_win);
                for (o, &p) in out.data_mut().iter_mut().zip(partial.data()) {
                    *o += p;
                }
            }
            out
        } else {
            a.matmul(&b)
        };
        let serial = bits(&[mm, at.matmul_tn(&b), a.matmul_nt(&w)]);
        assert_eq!(
            pooled, serial,
            "pool diverged from the serial shard oracle in fast mode [m={m} k={k} n={n}]"
        );
    }
    restore_defaults();
}

/// The fused fast segment ops (online softmax, `mul_add` weighted sum)
/// vs their strict three-pass / plain spellings, over hostile payloads
/// and the layouts the strict tier pins — ε-close, NaN-ness identical.
#[test]
fn fast_segment_ops_are_eps_close_to_strict() {
    let _guard = lock_mode();
    kernels::set_matmul_grain(1);
    let store = ParamStore::new(7);
    let layouts: &[(&[usize], usize)] = &[
        (&[5], 3),
        (&[3, 0, 5, 1, 8], 7),
        (&[1; 19], 4),
        (&[0, 0, 6, 2, 0, 9, 1, 4], 1),
    ];
    for (li, &(lens, cols)) in layouts.iter().enumerate() {
        let seed = 777 + li as u64;
        let segs = Segments::from_lens(lens.iter().copied());
        let rows = segs.total_rows();
        let scores = wild_tensor(rows, cols, seed);
        let wts = wild_tensor(rows, 1, seed ^ 0x77);
        let vals = wild_tensor(rows, cols, seed ^ 0x88);
        let run = |mode: KernelMode, threads: usize| {
            kernels::set_kernel_mode(mode);
            kernels::set_matmul_threads(threads);
            let mut g = Graph::new(&store);
            let sc = g.input(scores.clone());
            let sm = g.segment_softmax_rows(sc, &segs);
            let wn = g.input(wts.clone());
            let vn = g.input(vals.clone());
            let ws = g.segment_weighted_sum(wn, vn, &segs);
            (g.value(sm).data().to_vec(), g.value(ws).data().to_vec())
        };
        let (s_sm, s_ws) = run(KernelMode::Strict, 1);
        // Weighted-sum magnitude scale: Σ_r |w_r|·|v_rd| per segment.
        let mut ws_scale = vec![0.0f32; segs.len() * cols.max(1)];
        for (s, (r0, r1)) in (0..segs.len()).map(|s| (s, segs.bounds(s))) {
            for r in r0..r1 {
                for d in 0..cols {
                    ws_scale[s * cols + d] += wts[(r, 0)].abs() * vals[(r, d)].abs();
                }
            }
        }
        for threads in THREAD_MATRIX {
            let (f_sm, f_ws) = run(KernelMode::Fast, threads);
            let ctx = format!("lens={lens:?} cols={cols} threads={threads}");
            // Softmax outputs live in [0, 1]: a flat absolute ε suffices.
            assert_eps_parity(&f_sm, &s_sm, |_| 1.0, &format!("segment_softmax {ctx}"));
            assert_eps_parity(
                &f_ws,
                &s_ws,
                |i| ws_scale[i],
                &format!("segment_weighted_sum {ctx}"),
            );
        }
    }
    restore_defaults();
}

/// The end-to-end gate: train on the full fixed corpus (LLVM 12-loop
/// suite + polybench-lite + mibench-lite) in strict mode, then serve the
/// checkpoint through the batched serving path in both modes. Fast mode
/// must reproduce the strict decisions exactly, loop for loop — the
/// product-level guarantee all the ε bounds above exist to protect.
#[test]
fn fast_serving_decisions_match_strict_on_the_full_corpus() {
    let _guard = lock_mode();
    let mut corpus = suite::llvm_suite();
    corpus.extend(polybench::polybench());
    corpus.extend(mibench::mibench());
    assert!(corpus.len() >= 24, "corpus shrank: {}", corpus.len());

    let mut cfg = NvConfig::fast()
        .with_seed(1729)
        .with_kernel_mode(KernelMode::Strict);
    cfg.ppo.train_batch = 24;
    cfg.ppo.minibatch = 8;
    cfg.ppo.epochs = 2;
    let mut env = VectorizeEnv::new(corpus, cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg.clone());
    nv.train(&mut env, 2);
    let checkpoint = nv.checkpoint();
    let samples: Vec<_> = env.contexts().iter().map(|c| c.sample.clone()).collect();
    assert!(
        samples.len() >= 24,
        "corpus lost loops: {} contexts",
        samples.len()
    );

    let serve_decisions = |mode: KernelMode| {
        let mut m = NeuroVectorizer::new(cfg.clone().with_kernel_mode(mode));
        m.restore(&checkpoint).expect("restore");
        let handle = m.serve();
        let decisions: Vec<(usize, usize)> = samples
            .iter()
            .map(|s| handle.decide_sample(s).expect("serve decision").0)
            .collect();
        handle.shutdown();
        decisions
    };

    let strict = serve_decisions(KernelMode::Strict);
    let fast = serve_decisions(KernelMode::Fast);
    assert_eq!(fast, strict, "fast-mode serving changed a corpus decision");
    restore_defaults();
}

/// Direct (unbatched) inference agrees too: `decide` over every corpus
/// sample is mode-invariant on a freshly seeded (untrained) model, where
/// logits sit closest together and a reassociation flip would be likeliest.
#[test]
fn fast_direct_inference_matches_strict_on_fresh_weights() {
    let _guard = lock_mode();
    let cfg = NvConfig::fast().with_seed(5);
    let mut corpus = suite::llvm_suite();
    corpus.extend(polybench::polybench());
    corpus.extend(mibench::mibench());
    let env = VectorizeEnv::new(corpus, cfg.target.clone(), &cfg.embed);
    let space = env.space();
    let decide_all = |mode: KernelMode| {
        let m = NeuroVectorizer::new(cfg.clone().with_kernel_mode(mode));
        env.contexts()
            .iter()
            .map(|c| m.decide(&c.sample, space))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        decide_all(KernelMode::Fast),
        decide_all(KernelMode::Strict),
        "fast-mode direct inference changed a decision"
    );
    restore_defaults();
}

/// Finite well-scaled gradients flow through the fast kernels ε-close to
/// strict: one fused `linear → tanh → sum` backward pass per thread
/// count (dx, dW, db all bounded by the forward magnitudes).
#[test]
fn fast_gradients_are_eps_close_to_strict() {
    let _guard = lock_mode();
    kernels::set_matmul_grain(1);
    let (m, k, n) = (4usize, 340usize, 24usize);
    let mut store = ParamStore::new(11);
    let x_init = finite_tensor(m, k, 21);
    let w = store.param("w", finite_tensor(k, n, 22));
    let b = store.param("b", finite_tensor(1, n, 23));
    let run = |mode: KernelMode, threads: usize| {
        kernels::set_kernel_mode(mode);
        kernels::set_matmul_threads(threads);
        let mut g = Graph::new(&store);
        let x = g.input(x_init.clone());
        let (wn, bn) = (g.param(w), g.param(b));
        let y = g.linear(x, wn, bn);
        let t = g.tanh(y);
        let loss = g.sum_all(t);
        g.backward(loss);
        let grads = g.param_grads();
        let mut all = g.grad(x).expect("dx").data().to_vec();
        all.extend_from_slice(grads[&w].data());
        all.extend_from_slice(grads[&b].data());
        all
    };
    let strict = run(KernelMode::Strict, 1);
    for threads in THREAD_MATRIX {
        let fast = run(KernelMode::Fast, threads);
        // tanh'·sums keep every gradient O(k); scale by the reduction
        // depth for the dW entries accumulated over m·k products.
        assert_eps_parity(
            &fast,
            &strict,
            |_| k as f32,
            &format!("gradients threads={threads}"),
        );
    }
    restore_defaults();
}
