//! `layerbench` — the repository's benchmark over the release binaries.
//!
//! ```text
//! python3 layerbench/run.py --workload hub-repeat --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds the release `nvc` and this driver, then runs it from
//! the repository root. Workloads (see `layerbench/NOTES.md`):
//!
//! * `hub-repeat` / `hub-distinct`: closed-loop clients, one connection
//!   per core, against one `nvc hub` process serving one checkpoint;
//! * `train`: the release `nvc train` with a fixed seed, kernel count and
//!   iteration count, repeated for the run time.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer budget, measured by timing
//! the public functions of each crate from this driver while replaying
//! the same inputs, plus counters from the hub's `stats` verb. Every
//! reply is checked against a strict in-process reference.

mod hub;
mod inputs;
mod oracle;
mod serving;
mod stats;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use nvc_serve::json::obj;
use nvc_serve::Json;

/// Iteration count and kernel pool of the served checkpoint. It is
/// trained once per build of `nvc` and cached in the work directory.
const SERVED_KERNELS: usize = 160;
const SERVED_ITERATIONS: usize = 60;
const SERVED_SEED: u64 = 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HubRepeat,
    HubDistinct,
    Train,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "hub-repeat" => Ok(Workload::HubRepeat),
            "hub-distinct" => Ok(Workload::HubDistinct),
            "train" => Ok(Workload::Train),
            _ => Err(format!(
                "unknown workload `{s}` (hub-repeat, hub-distinct, train)"
            )),
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The release `nvc` binary.
    pub nvc: PathBuf,
    /// Scratch directory for checkpoints and journals.
    pub work: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .ok_or_else(|| format!("missing {flag}"))
        };
        let num = |flag: &str| {
            get(flag)?
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number"))
        };
        let trace = num("--trace")?;
        if trace > 1 {
            return Err("--trace wants 0 or 1".to_string());
        }
        Ok(Args {
            workload: Workload::parse(get("--workload")?)?,
            seed: num("--seed")?,
            seconds: num("--seconds")?.max(1),
            trace: trace == 1,
            nvc: PathBuf::from(get("--nvc")?),
            work: PathBuf::from(get("--work")?),
        })
    }

    /// Measured window after warm-up.
    pub fn measure(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Every end-to-end metric and its unit, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("loops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("speedup_geomean", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric and its unit, as `BENCHMARK.json` lists them.
/// A workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hub.wire_us", "us"),
    ("hub.handle_line_us", "us"),
    ("hub.cpu_us_per_req", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.cache_probe_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.stage_share", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.text_repeat_share", "ratio"),
    ("serve.mean_batch", "loops"),
    ("serve.batches", "count"),
    ("serve.dedup_waits", "count"),
    ("frontend.parse_us", "us"),
    ("frontend.extract_us", "us"),
    ("frontend.inject_us", "us"),
    ("frontend.bytes_per_s", "B/s"),
    ("embed.path_contexts_us", "us"),
    ("embed.contexts_per_loop", "count"),
    ("embed.encode_us", "us"),
    ("rl.decide_us", "us"),
    ("rl.policy_us", "us"),
    ("rl.over_legal_vf_share", "ratio"),
    ("rl.collect_us", "us"),
    ("rl.update_us", "us"),
    ("nn.matmul_us", "us"),
    ("nn.matmul_calls", "count"),
    ("nn.matmul_tn_us", "us"),
    ("nn.matmul_tn_calls", "count"),
    ("nn.matmul_nt_us", "us"),
    ("nn.matmul_nt_calls", "count"),
    ("nn.linear_us", "us"),
    ("nn.linear_calls", "count"),
    ("nn.segment_softmax_us", "us"),
    ("nn.segment_softmax_calls", "count"),
    ("nn.segment_weighted_sum_us", "us"),
    ("nn.segment_weighted_sum_calls", "count"),
    ("nn.gather_us", "us"),
    ("nn.gather_calls", "count"),
    ("core.env_build_s", "s"),
    ("ir.lower_us", "us"),
    ("core.reward_us", "us"),
    ("fleet.store_hits", "count"),
    ("fleet.store_publishes", "count"),
    ("obs.ops_overhead", "ratio"),
];

/// One measured value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            n,
        }
    }
}

/// What one run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every failure reason seen (the first few are printed).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub kernel_mode: String,
    pub checkpoint_hash: u64,
    /// Host conditions during the measurement (tags, not metrics).
    pub conditions: Vec<(&'static str, f64)>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("work dir: {e}"))?;
    let report = match args.workload {
        Workload::HubRepeat | Workload::HubDistinct => {
            let checkpoint = served_checkpoint(&args.nvc, &args.work)?;
            serving::run_hub(args, &checkpoint)?
        }
        Workload::Train => train::run_train(args)?,
    };
    emit(args, &report)
}

/// The checkpoint every hub run serves: `nvc train` with fixed settings,
/// trained once per `nvc` binary (training is bitwise-reproducible, so
/// the cached file equals a fresh one).
fn served_checkpoint(nvc: &Path, work: &Path) -> Result<PathBuf, String> {
    let binary = std::fs::read(nvc).map_err(|e| format!("read {}: {e}", nvc.display()))?;
    let path = work.join(format!("served-{:016x}.ckpt", stats::fnv1a(&binary)));
    if path.exists() {
        return Ok(path);
    }
    let tmp = path.with_extension("tmp");
    let mut cmd = Command::new(nvc);
    cmd.arg("train")
        .args(["--kernels", &SERVED_KERNELS.to_string()])
        .args(["--iterations", &SERVED_ITERATIONS.to_string()])
        .args(["--seed", &SERVED_SEED.to_string()])
        .arg("--out")
        .arg(&tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for var in hub::SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let status = cmd.status().map_err(|e| format!("nvc train: {e}"))?;
    if !status.success() {
        return Err(format!("training the served checkpoint failed: {status}"));
    }
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename checkpoint: {e}"))?;
    Ok(path)
}

/// Prints the tag line and then, as the last stdout line, the result:
/// every metric of the run's kind, in list order, with its unit.
fn emit(args: &Args, report: &Report) -> Result<(), String> {
    for f in report.failures.iter().take(5) {
        eprintln!("layerbench: FAILED: {f}");
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(m) = report
        .metrics
        .iter()
        .find(|m| !list.iter().any(|(name, _)| *name == m.name))
    {
        return Err(format!("metric {} is not in the benchmark's list", m.name));
    }
    let mut metrics = Vec::with_capacity(list.len());
    let mut counts = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let (value, n) = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or((0.0, 0), |m| (m.value, m.n));
        // An end-to-end metric reads 0 only when requests failed (a run
        // that fails every request serves nothing); then the result
        // still prints, with `correct: false`.
        if !value.is_finite() || (!args.trace && value <= 0.0 && report.failed == 0) {
            return Err(format!("metric {name} = {value} is not a positive number"));
        }
        metrics.push((
            name.to_string(),
            obj(vec![
                ("value", Json::from(value)),
                ("unit", Json::from(unit)),
            ]),
        ));
        counts.push((name.to_string(), Json::from(n)));
    }
    let tags = obj(vec![
        (
            "workload",
            Json::from(match args.workload {
                Workload::HubRepeat => "hub-repeat",
                Workload::HubDistinct => "hub-distinct",
                Workload::Train => "train",
            }),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("nproc", Json::from(stats::nproc())),
        ("cpu_model", Json::from(stats::cpu_model())),
        ("kernel_mode", Json::from(report.kernel_mode.as_str())),
        (
            "checkpoint_hash",
            Json::from(format!("{:016x}", report.checkpoint_hash)),
        ),
        ("n", Json::Obj(counts)),
    ]);
    let Json::Obj(mut tags) = tags else {
        unreachable!("obj renders an object")
    };
    tags.extend(
        report
            .conditions
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::from(v))),
    );
    let tags = Json::Obj(tags);
    println!("{}", obj(vec![("tags", tags)]).render());
    let result = obj(vec![
        (
            "correct",
            Json::from(report.failed == 0 && report.attempted > 0),
        ),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the root `BENCHMARK.json` agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = Json::parse(&text).expect("valid JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
