//! The hub workloads: the end-to-end run against the release `nvc hub`,
//! and the traced run's layer budget.
//!
//! The budget replays the first requests of the same sequence twice, in
//! process and on one thread: once through `nvc_hub::Hub::handle_line`
//! (the whole request), once stage by stage through the public function
//! each crate exports for its part of the request path. Stage times are
//! per-request means, so they add up; whatever `handle_line` spends
//! outside them (batch queue wait, the flush deadline, single-flight,
//! locks, routing) is reported as `serve.unattributed_us`.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use neurovectorizer::{ContentStore, Hub, ModelSpec, NeuroVectorizer, NvConfig};
use nvc_embed::{extract_path_contexts, PathSample};
use nvc_frontend::LoopPragma;
use nvc_frontend::{extract_loops, inject_pragmas, parse_statement, parse_translation_unit};
use nvc_serve::json::obj;
use nvc_serve::{DecisionModel, Json, LoopReport, ShardedLruCache, SharedDecisionStore};
use nvc_vectorizer::ActionSpace;

use crate::hub::{closed_loop, peak_rss_mb, steal_between, HubProc, Sample, StealTrace};
use crate::inputs::{self, Inputs};
use crate::oracle::{check_reply, Expected, Oracle};
use crate::stats::{geomean, mean, median, nproc, par_chunks, quantile};
use crate::{Args, Metric, Report, Workload};

/// Excluded from the measured window: connection set-up, first-touch
/// allocation, and (on `hub-repeat`) the cache filling.
const WARMUP: Duration = Duration::from_secs(1);
/// Hub spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 5;
/// Slice length for [`QuietHalf`].
const SLICE: Duration = Duration::from_millis(500);
/// Requests generated per second of run time. A run stops early if the
/// clients exhaust the sequence, so these sit well above the rates a
/// 2-core host reaches (about 10k/s and 0.6k/s).
const REPEAT_RATE_CAP: usize = 30_000;
const DISTINCT_RATE_CAP: usize = 1_000;
/// `speedup_geomean` covers the distinct files among the first requests
/// of the sequence, so it depends on the seed only.
const SPEEDUP_PREFIX_REPEAT: usize = 4_000;
const SPEEDUP_PREFIX_DISTINCT: usize = 256;
/// The request after whose reply `peak_rss_mb` is read: about 6 s into
/// a run on a 2-core host.
const RSS_MARK_REPEAT: usize = 50_000;
const RSS_MARK_DISTINCT: usize = 4_000;
/// Requests replayed in process for the layer budget.
const REPLAY_REPEAT: usize = 6_000;
const REPLAY_DISTINCT: usize = 600;

/// One load run against a live hub.
struct Load {
    samples: Vec<Sample>,
    steal: StealTrace,
    /// The hub's `stats` after the run.
    stats: Json,
    peak_rss_mb: f64,
    cpu_s: f64,
    /// Length of the measured window: the requested time, or less if
    /// the clients used up the generated sequence first.
    measured_s: f64,
    /// Host steal share and hub CPU use during the load.
    conditions: Vec<(&'static str, f64)>,
}

/// `peak_rss_mb` is read when the reply to request `rss_mark` arrives
/// (or at the end, if the run never gets there), so it depends on the
/// inputs served, not on how many requests the host had time for.
fn load(
    hub: &HubProc,
    inputs: &Inputs,
    measure: Duration,
    rss_mark: usize,
) -> Result<Load, String> {
    let cpu0 = hub.cpu_seconds()?;
    let t = Instant::now();
    let marked = OnceLock::new();
    let (samples, steal) = closed_loop(&hub.addr, inputs, nproc(), WARMUP + measure, |idx| {
        if idx == rss_mark {
            marked.get_or_init(|| peak_rss_mb(hub.pid()));
        }
    });
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = hub.cpu_seconds()? - cpu0;
    let last_reply = samples.iter().map(|s| s.sent + s.rtt).max();
    let end = last_reply.map_or(WARMUP, |t| t.min(WARMUP + measure));
    let conditions = vec![
        ("host_steal_share", steal_between(&steal, WARMUP, end)),
        ("hub_cores_busy", cpu_s / wall_s),
    ];
    Ok(Load {
        samples,
        steal,
        stats: hub.stats()?,
        peak_rss_mb: marked
            .into_inner()
            .unwrap_or_else(|| peak_rss_mb(hub.pid()))?,
        cpu_s,
        measured_s: end.saturating_sub(WARMUP).as_secs_f64().max(1e-3),
        conditions,
    })
}

/// Checks every reply of a load against the reference, on every core
/// (the hub has stopped by then). Returns, per sample, the loops it
/// decided (`None` when it failed).
fn verify(
    checkpoint: &str,
    inputs: &Inputs,
    expected: &mut HashMap<usize, Result<Expected, String>>,
    samples: &[Sample],
    report: &mut Report,
) -> Vec<Option<usize>> {
    let mut todo: Vec<usize> = samples
        .iter()
        .map(|s| inputs.sequence[s.idx])
        .filter(|f| !expected.contains_key(f))
        .collect();
    todo.sort_unstable();
    todo.dedup();
    let computed = par_chunks(&todo, |part| {
        let mut oracle = Oracle::new(Some(checkpoint)).expect("checkpoint restored once already");
        part.iter()
            .map(|&f| (f, oracle.expect(&inputs.files[f].kernel)))
            .collect()
    });
    expected.extend(computed);
    let expected = &*expected;
    let verdicts = par_chunks(samples, |part| {
        part.iter()
            .map(|s| match (&s.reply, &expected[&inputs.sequence[s.idx]]) {
                (Ok(reply), Ok(want)) => check_reply(reply, want),
                (Err(e), _) => Err(e.clone()),
                (_, Err(e)) => Err(format!("reference: {e}")),
            })
            .collect()
    });
    samples
        .iter()
        .zip(verdicts)
        .map(|(s, verdict)| {
            report.attempted += 1;
            verdict
                .map_err(|e| {
                    report.failed += 1;
                    let name = &inputs.files[inputs.sequence[s.idx]].kernel.name;
                    report.failures.push(format!("{name}: {e}"));
                })
                .ok()
        })
        .collect()
}

fn is_measured(s: &Sample) -> bool {
    s.sent >= WARMUP
}

/// The end-to-end figures of a load, from its quieter half.
///
/// The measured window is cut into [`SLICE`]-long slices by send time,
/// and the half of the slices in which the hypervisor stole the least
/// host CPU is kept: throughput is their replies over their time,
/// latency percentiles are over their requests. On a shared 2-core host
/// the steal share swings between ~0 and ~30% within a run, and a
/// closed loop of 100 µs round trips halves its throughput under it
/// (this is the "bimodal" 4–5k vs 8–10k req/s split on `hub-repeat`).
/// The selection looks only at the host's steal counter, never at the
/// program's own speed, so a program stall is measured wherever it
/// falls.
/// A measured request and the loops it decided (`None`: it failed).
type Measured<'a> = (&'a Sample, Option<usize>);

struct QuietHalf {
    req_per_s: f64,
    loops_per_s: f64,
    rtts_us: Vec<f64>,
}

impl QuietHalf {
    fn of(measured: &[Measured<'_>], run: &Load) -> QuietHalf {
        let len = SLICE.as_secs_f64();
        let n = ((run.measured_s / len).floor() as usize).max(1);
        let mut slices: Vec<(f64, Vec<&Measured<'_>>)> = (0..n)
            .map(|k| {
                let from = WARMUP + SLICE * k as u32;
                (steal_between(&run.steal, from, from + SLICE), Vec::new())
            })
            .collect();
        for m in measured {
            let k = ((m.0.sent - WARMUP).as_secs_f64() / len) as usize;
            if let Some(slice) = slices.get_mut(k) {
                slice.1.push(m);
            }
        }
        // Stable: equal steal keeps time order.
        slices.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kept: Vec<&Measured<'_>> = slices[..n.div_ceil(2)]
            .iter()
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        let secs = n.div_ceil(2) as f64 * len;
        QuietHalf {
            req_per_s: kept.iter().filter(|m| m.1.is_some()).count() as f64 / secs,
            loops_per_s: kept.iter().filter_map(|m| m.1).sum::<usize>() as f64 / secs,
            rtts_us: kept.iter().map(|m| m.0.rtt.as_secs_f64() * 1e6).collect(),
        }
    }
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The policy's own over-legal VF requests are not failures (the
/// compiler clamps them), but every run says how many it served.
pub fn note_over_legal(over: usize, loops: usize) {
    if over > 0 {
        eprintln!(
            "layerbench: note: {over} of {loops} decided loops ask for a VF above \
             nvc_ir::legal_max_vf (the reference asks the same; the compiler clamps)"
        );
    }
}

pub fn run_hub(args: &Args, checkpoint: &Path) -> Result<Report, String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(checkpoint).map_err(|e| format!("checkpoint: {e}"))?;
    let horizon = (WARMUP + args.measure()).as_secs() as usize;
    let (inputs, prefix, rss_mark) = match args.workload {
        Workload::HubRepeat => (
            inputs::hub_repeat(args.seed, REPEAT_RATE_CAP * horizon),
            SPEEDUP_PREFIX_REPEAT,
            RSS_MARK_REPEAT,
        ),
        _ => (
            inputs::hub_distinct(
                args.seed,
                DISTINCT_RATE_CAP * horizon,
                &NvConfig::fast().embed,
            ),
            SPEEDUP_PREFIX_DISTINCT,
            RSS_MARK_DISTINCT,
        ),
    };
    eprintln!(
        "layerbench: {} requests generated at {:.1}s",
        inputs.sequence.len(),
        secs_since(t0)
    );

    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    for _ in 1..SETUP_SPAWNS {
        let mut h = HubProc::spawn(&args.nvc, checkpoint, false)?;
        setups.push(h.setup_s);
        h.stop();
    }
    let mut hub = HubProc::spawn(&args.nvc, checkpoint, false)?;
    setups.push(hub.setup_s);
    let run = load(&hub, &inputs, args.measure(), rss_mark)?;
    hub.stop();
    eprintln!("layerbench: load finished at {:.1}s", secs_since(t0));
    let kernel_mode = run
        .stats
        .get("kernel_mode")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();

    let mut report = Report {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        kernel_mode,
        checkpoint_hash: Oracle::new(Some(&text))?.checkpoint_hash(),
        conditions: run.conditions.clone(),
    };
    let mut expected = HashMap::new();
    let decided = verify(&text, &inputs, &mut expected, &run.samples, &mut report);
    eprintln!(
        "layerbench: verified {} replies at {:.1}s",
        run.samples.len(),
        secs_since(t0)
    );
    let (over_legal, decided_loops) = run
        .samples
        .iter()
        .zip(&decided)
        .filter_map(|(s, d)| {
            let e = expected.get(&inputs.sequence[s.idx])?.as_ref().ok()?;
            Some((e.over_legal(), (*d)?))
        })
        .fold((0, 0), |(o, t), (eo, n)| (o + eo, t + n));
    let over_legal_share = over_legal as f64 / decided_loops.max(1) as f64;
    note_over_legal(over_legal, decided_loops);

    let measured: Vec<Measured<'_>> = run
        .samples
        .iter()
        .zip(decided.iter().copied())
        .filter(|(s, _)| is_measured(s))
        .collect();
    if !args.trace {
        let quiet = QuietHalf::of(&measured, &run);
        let ok = measured.iter().filter(|(_, d)| d.is_some()).count();
        let loops: usize = measured.iter().filter_map(|(_, d)| *d).sum();
        // Distinct files among the sequence prefix, each loop once.
        let mut files = HashSet::new();
        let speedups: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.idx < prefix && files.insert(inputs.sequence[s.idx]))
            .filter_map(|s| expected.get(&inputs.sequence[s.idx])?.as_ref().ok())
            .flat_map(|e| e.loops.iter().map(|l| l.speedup))
            .collect();
        report.metrics = vec![
            Metric::new("setup_s", median(&setups), setups.len()),
            Metric::new("req_per_s", quiet.req_per_s, ok),
            Metric::new("loops_per_s", quiet.loops_per_s, loops),
            Metric::new(
                "latency_p50_us",
                median(&quiet.rtts_us),
                quiet.rtts_us.len(),
            ),
            Metric::new(
                "latency_p90_us",
                quantile(&quiet.rtts_us, 0.9),
                quiet.rtts_us.len(),
            ),
            Metric::new("speedup_geomean", geomean(&speedups), speedups.len()),
            Metric::new("peak_rss_mb", run.peak_rss_mb, 1),
        ];
        return Ok(report);
    }

    // Traced run: counters from the untraced run, kernel op time from a
    // second hub with op timers on, stage spans from the replay.
    let loops_per_s_off = QuietHalf::of(&measured, &run).loops_per_s;
    let mut ops_hub = HubProc::spawn(&args.nvc, checkpoint, true)?;
    let ops_measure = Duration::from_secs((args.seconds / 2).max(2));
    let ops_run = load(&ops_hub, &inputs, ops_measure, rss_mark)?;
    ops_hub.stop();
    let ops_decided = verify(&text, &inputs, &mut expected, &ops_run.samples, &mut report);
    let ops_measured: Vec<Measured<'_>> = ops_run
        .samples
        .iter()
        .zip(ops_decided)
        .filter(|(s, _)| is_measured(s))
        .collect();
    let loops_per_s_on = QuietHalf::of(&ops_measured, &ops_run).loops_per_s;

    let mut m = vec![Metric::new(
        "rl.over_legal_vf_share",
        over_legal_share,
        decided_loops,
    )];
    let replay_n = match args.workload {
        Workload::HubRepeat => REPLAY_REPEAT,
        _ => REPLAY_DISTINCT,
    }
    .min(inputs.sequence.len());
    let budget = replay(&text, &inputs, replay_n)?;
    let rtt_mean = mean(
        &measured
            .iter()
            .map(|(s, _)| s.rtt.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    let requests = run.samples.len();
    m.push(Metric::new(
        "hub.wire_us",
        rtt_mean - budget.handle_line_us,
        measured.len(),
    ));
    m.push(Metric::new(
        "hub.handle_line_us",
        budget.handle_line_us,
        replay_n,
    ));
    m.push(Metric::new(
        "hub.cpu_us_per_req",
        run.cpu_s * 1e6 / requests.max(1) as f64,
        requests,
    ));
    m.extend(budget.stages);

    let prod = |stats: &Json| -> Result<Json, String> {
        stats
            .get("models")
            .and_then(|ms| ms.get("prod"))
            .cloned()
            .ok_or_else(|| "stats without model `prod`".to_string())
    };
    let model = &prod(&run.stats)?;
    let num = |v: &Json, path: &[&str]| -> f64 {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let (hits, misses) = (
        num(model, &["cache", "hits"]),
        num(model, &["cache", "misses"]),
    );
    m.push(Metric::new(
        "serve.cache_hit_rate",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    ));
    m.push(Metric::new(
        "serve.text_repeat_share",
        inputs.text_repeat_share(requests),
        requests,
    ));
    m.push(Metric::new(
        "serve.mean_batch",
        num(model, &["batch", "mean_batch"]),
        num(model, &["batch", "batches"]) as usize,
    ));
    for (name, stats, path) in [
        ("serve.batches", model, ["batch", "batches"]),
        ("serve.dedup_waits", model, ["batch", "dedup_waits"]),
        ("fleet.store_hits", &run.stats, ["shared_store", "hits"]),
        (
            "fleet.store_publishes",
            &run.stats,
            ["shared_store", "publishes"],
        ),
    ] {
        m.push(Metric::new(name, num(stats, &path), 1));
    }
    let ops_requests = ops_run.samples.len().max(1) as f64;
    let ops_model = &prod(&ops_run.stats)?;
    for op in nvc_obs::Op::ALL {
        let name = op.name();
        m.push(Metric::new(
            &format!("nn.{name}_us"),
            num(ops_model, &["ops", name, "total_us"]) / ops_requests,
            ops_run.samples.len(),
        ));
        m.push(Metric::new(
            &format!("nn.{name}_calls"),
            num(ops_model, &["ops", name, "calls"]) / ops_requests,
            ops_run.samples.len(),
        ));
    }
    m.push(Metric::new(
        "obs.ops_overhead",
        loops_per_s_on / loops_per_s_off.max(f64::MIN_POSITIVE),
        ops_measured.len(),
    ));
    report.metrics = m;
    Ok(report)
}

/// The replayed layer budget.
struct Budget {
    /// Mean `Hub::handle_line` time per request.
    handle_line_us: f64,
    /// Stage metrics, including `serve.unattributed_us`.
    stages: Vec<Metric>,
}

/// The fast-kernel model the hub would serve, restored from `text`.
fn serving_model(text: &str) -> Result<NeuroVectorizer, String> {
    let cfg = NvConfig::fast().with_kernel_mode(nvc_nn::KernelMode::Fast);
    let mut nv = NeuroVectorizer::new(cfg);
    nv.restore(text).map_err(|e| format!("checkpoint: {e}"))?;
    Ok(nv)
}

fn replay(text: &str, inputs: &Inputs, n: usize) -> Result<Budget, String> {
    // Whole requests through an in-process hub configured like `nvc hub`.
    let cfg = NvConfig::fast();
    let nv = serving_model(text)?;
    let hash = nv.checkpoint_hash();
    let hub = Hub::new(cfg.hub.clone(), cfg.serve.clone())
        .with_shared_store(Arc::new(ContentStore::default()));
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: hash,
        model: Arc::new(nv),
    })
    .map_err(|e| e.to_string())?;
    let mut handle = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        black_box(hub.handle_line(inputs.line(i)));
        handle.push(t.elapsed().as_secs_f64() * 1e6);
    }
    hub.shutdown();

    // The same requests, stage by stage.
    let nv = serving_model(text)?;
    let embed = nv.config().embed.clone();
    let space = ActionSpace::for_target(&nv.config().target);
    let cache: ShardedLruCache<(usize, usize)> =
        ShardedLruCache::new(cfg.serve.cache_capacity, cfg.serve.cache_shards);
    let store = ContentStore::default();
    #[derive(Default)]
    struct Acc {
        json: f64,
        parse: f64,
        extract: f64,
        contexts: f64,
        probe: f64,
        encode: f64,
        decide: f64,
        inject: f64,
        render: f64,
        bytes: f64,
        n_contexts: f64,
        n_loops: f64,
    }
    let mut a = Acc::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for i in 0..n {
        let line = inputs.line(i);
        let t = Instant::now();
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or("request without source")?
            .to_string();
        a.json += us(t);
        a.bytes += source.len() as f64;

        let t = Instant::now();
        let tu = parse_translation_unit(&source).map_err(|e| e.to_string())?;
        a.parse += us(t);

        let t = Instant::now();
        let loops: Vec<_> = extract_loops(&tu, &source)
            .into_iter()
            .filter(|l| l.is_innermost)
            .filter_map(|l| Some((parse_statement(&l.nest_text).ok()?, l)))
            .collect();
        a.extract += us(t);

        let t = Instant::now();
        let samples: Vec<PathSample> = loops
            .iter()
            .map(|(stmt, _)| {
                PathSample::from_contexts(&extract_path_contexts(stmt, embed.max_paths), &embed)
            })
            .collect();
        a.contexts += us(t);
        a.n_contexts += samples.iter().map(PathSample::len).sum::<usize>() as f64;
        a.n_loops += samples.len() as f64;

        let t = Instant::now();
        let keys: Vec<u64> = samples.iter().map(nvc_serve::sample_key).collect();
        let mut decisions: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut misses: Vec<(u64, &PathSample)> = Vec::new();
        for (key, sample) in keys.iter().zip(&samples) {
            if decisions.contains_key(key) || misses.iter().any(|(k, _)| k == key) {
                continue;
            }
            match cache.get(*key).or_else(|| store.get(hash, *key)) {
                Some(pair) => {
                    decisions.insert(*key, pair);
                }
                None => misses.push((*key, sample)),
            }
        }
        a.probe += us(t);

        if !misses.is_empty() {
            let batch: Vec<&PathSample> = misses.iter().map(|(_, s)| *s).collect();
            let t = Instant::now();
            black_box(nv.encode_batch(&batch));
            a.encode += us(t);
            let t = Instant::now();
            let pairs = nv.decide_batch(&batch);
            a.decide += us(t);
            let t = Instant::now();
            for ((key, _), pair) in misses.iter().zip(pairs) {
                cache.insert(*key, pair);
                store.put(hash, *key, pair);
                decisions.insert(*key, pair);
            }
            a.probe += us(t);
        }

        let t = Instant::now();
        let mut reports: Vec<LoopReport> = loops
            .iter()
            .zip(&keys)
            .map(|((_, l), key)| {
                let (vf_idx, if_idx) = decisions[key];
                let d = space.decision_from_pair(vf_idx, if_idx);
                LoopReport {
                    function: l.function.clone(),
                    line: l.header_line,
                    vf: d.vf,
                    if_: d.if_,
                    cached: false,
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
        let annotated = inject_pragmas(&source, &pragmas);
        reports.sort_by_key(|r| r.line);
        a.inject += us(t);

        let t = Instant::now();
        black_box(
            obj(vec![
                ("ok", Json::from(true)),
                ("model", Json::from("prod")),
                ("checkpoint_hash", Json::from(format!("{hash:016x}"))),
                ("source", Json::from(annotated)),
                (
                    "loops",
                    Json::Arr(reports.iter().map(LoopReport::to_json).collect()),
                ),
                ("latency_us", Json::from(0u64)),
            ])
            .render(),
        );
        a.render += us(t);
    }

    let per = |total: f64| total / n.max(1) as f64;
    let handle_line_us = mean(&handle);
    let stage_sum = per(a.json + a.parse + a.extract + a.contexts + a.probe + a.decide)
        + per(a.inject + a.render);
    let stages = vec![
        Metric::new("serve.json_parse_us", per(a.json), n),
        Metric::new("serve.render_us", per(a.render), n),
        Metric::new("serve.cache_probe_us", per(a.probe), n),
        Metric::new("serve.unattributed_us", handle_line_us - stage_sum, n),
        Metric::new("serve.stage_share", stage_sum / handle_line_us, n),
        Metric::new("frontend.parse_us", per(a.parse), n),
        Metric::new("frontend.extract_us", per(a.extract), n),
        Metric::new("frontend.inject_us", per(a.inject), n),
        Metric::new(
            "frontend.bytes_per_s",
            a.bytes / ((a.parse + a.extract) * 1e-6).max(f64::MIN_POSITIVE),
            n,
        ),
        Metric::new("embed.path_contexts_us", per(a.contexts), n),
        Metric::new(
            "embed.contexts_per_loop",
            a.n_contexts / a.n_loops.max(1.0),
            a.n_loops as usize,
        ),
        Metric::new("embed.encode_us", per(a.encode), n),
        Metric::new("rl.decide_us", per(a.decide), n),
        Metric::new("rl.policy_us", per(a.decide - a.encode), n),
    ];
    Ok(Budget {
        handle_line_us,
        stages,
    })
}
