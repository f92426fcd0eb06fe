//! Seeded workload inputs. The program under test only ever sees the
//! request lines built here; the same seed always yields byte-identical
//! lines.
//!
//! * `hub-repeat`: a fixed pool (generator kernels plus every bundled
//!   suite kernel) drawn by Zipf popularity, so exact-text repeats and
//!   alpha-renamed shape repeats both occur.
//! * `hub-distinct`: every request is a fresh file of [`LOOPS_PER_FILE`]
//!   innermost loops whose bodies are random expression trees; a loop is
//!   regenerated until its `nvc_serve::sample_key` is new to the run.

use std::collections::HashSet;

use nvc_datasets::{eval, generator, mibench, polybench, suite, Kernel};
use nvc_embed::{extract_path_contexts, EmbedConfig, PathSample};
use nvc_frontend::parse_statement;
use nvc_ir::ParamEnv;
use nvc_serve::json::obj;
use nvc_serve::Json;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{fnv1a, par_chunks};

/// Generator kernels in the `hub-repeat` pool (the bundled suites are
/// added on top).
const REPEAT_POOL_GENERATED: usize = 4096;
/// Zipf exponent of `hub-repeat` popularity.
const ZIPF_S: f64 = 0.9;
/// Innermost loops per `hub-distinct` file.
const LOOPS_PER_FILE: usize = 8;

/// One request file plus the runtime bindings the compiler model needs
/// to lower it (for the legality and speedup checks).
#[derive(Debug, Clone)]
pub struct RequestFile {
    pub kernel: Kernel,
    /// The protocol line sent to the hub (no trailing newline).
    pub line: String,
}

impl RequestFile {
    fn new(kernel: Kernel) -> RequestFile {
        let line = obj(vec![
            ("op", Json::from("vectorize")),
            ("source", Json::from(kernel.source.as_str())),
        ])
        .render();
        RequestFile { kernel, line }
    }
}

/// A workload's inputs: distinct files and the order they are sent in
/// (indices into `files`).
pub struct Inputs {
    pub files: Vec<RequestFile>,
    pub sequence: Vec<usize>,
}

impl Inputs {
    /// The protocol line of the `i`-th request.
    pub fn line(&self, i: usize) -> &str {
        &self.files[self.sequence[i]].line
    }

    /// Share of the first `n` requests whose exact text was already sent
    /// earlier in the run.
    pub fn text_repeat_share(&self, n: usize) -> f64 {
        let mut seen = HashSet::new();
        let n = n.min(self.sequence.len());
        let repeats = self.sequence[..n]
            .iter()
            .filter(|&&f| !seen.insert(f))
            .count();
        repeats as f64 / n.max(1) as f64
    }
}

/// Every bundled suite kernel (LLVM vectorizer tests, the evaluation
/// set, PolyBench-style and MiBench-style).
pub fn bundled_kernels() -> Vec<Kernel> {
    let mut all = suite::llvm_suite();
    all.extend(eval::eval_benchmarks());
    all.extend(polybench::polybench());
    all.extend(mibench::mibench());
    all
}

/// `hub-repeat`: `requests` draws from the seeded pool.
pub fn hub_repeat(seed: u64, requests: usize) -> Inputs {
    let mut pool = generator::generate(seed, REPEAT_POOL_GENERATED);
    pool.extend(bundled_kernels());
    let files: Vec<RequestFile> = pool.into_iter().map(RequestFile::new).collect();

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_2e9e_a7ed);
    // Popularity rank → file: a seeded permutation, so which files are
    // hot changes with the seed while the Zipf shape does not.
    let mut by_rank: Vec<usize> = (0..files.len()).collect();
    by_rank.shuffle(&mut rng);
    let mut cumulative = Vec::with_capacity(files.len());
    let mut total = 0.0;
    for rank in 1..=files.len() {
        total += 1.0 / (rank as f64).powf(ZIPF_S);
        cumulative.push(total);
    }
    let sequence = (0..requests)
        .map(|_| {
            let u = rng.gen_range(0.0..total);
            let rank = cumulative.partition_point(|&c| c <= u);
            by_rank[rank.min(files.len() - 1)]
        })
        .collect();
    Inputs { files, sequence }
}

/// `hub-distinct`: `requests` fresh files, every loop key unseen within
/// the run.
///
/// Files are drafted in parallel, each from its own seeded stream; one
/// pass in file order then redraws every loop whose key appeared
/// earlier, from a second per-file stream. Both orders are fixed, so the
/// result depends on the seed alone.
pub fn hub_distinct(seed: u64, requests: usize, embed: &EmbedConfig) -> Inputs {
    let stream = |i: usize, salt: u64| {
        let words = [seed, i as u64, salt].map(u64::to_le_bytes);
        ChaCha8Rng::seed_from_u64(fnv1a(&words.concat()))
    };
    let indices: Vec<usize> = (0..requests).collect();
    let mut drafts: Vec<(&str, Vec<DraftLoop>)> = par_chunks(&indices, |part| {
        part.iter()
            .map(|&i| {
                let mut rng = stream(i, 0);
                let ty = *ELEM_TYPES.choose(&mut rng).expect("non-empty");
                let loops: Vec<DraftLoop> = (0..LOOPS_PER_FILE)
                    .map(|j| draft_loop(&mut rng, j, ty, embed))
                    .collect();
                (ty, loops)
            })
            .collect()
    });
    let mut seen = HashSet::new();
    for (i, (ty, loops)) in drafts.iter_mut().enumerate() {
        let mut rng = stream(i, 1);
        for (j, l) in loops.iter_mut().enumerate() {
            while !seen.insert(l.key) {
                *l = draft_loop(&mut rng, j, ty, embed);
            }
        }
    }
    let files: Vec<RequestFile> = drafts
        .into_iter()
        .enumerate()
        .map(|(i, (ty, loops))| RequestFile::new(assemble(i, ty, &loops)))
        .collect();
    Inputs {
        sequence: (0..files.len()).collect(),
        files,
    }
}

/// The serving cache key of one loop statement: the same pipeline the
/// hub applies to an extracted innermost loop's nest text.
fn loop_key(loop_text: &str, embed: &EmbedConfig) -> Option<u64> {
    let stmt = parse_statement(loop_text).ok()?;
    let sample = PathSample::from_contexts(&extract_path_contexts(&stmt, embed.max_paths), embed);
    Some(nvc_serve::sample_key(&sample))
}

const TRIPS: [i64; 6] = [256, 500, 512, 1000, 1024, 2000];
const ELEM_TYPES: [&str; 4] = ["float", "double", "int", "float"];
/// Arrays hold twice the largest trip count plus the largest offset, so
/// strided and offset reads stay in bounds.
const ARRAY_LEN: i64 = 4104;

/// The `j`-th loop of a `hub-distinct` file, with its key and the
/// globals it needs. Names depend only on `j`, so a redrawn loop fits
/// the same slot.
struct DraftLoop {
    text: String,
    key: u64,
    globals: Vec<String>,
}

fn draft_loop(rng: &mut ChaCha8Rng, j: usize, ty: &str, embed: &EmbedConfig) -> DraftLoop {
    loop {
        let reads: Vec<String> = (0..rng.gen_range(2..=4usize))
            .map(|k| format!("r{j}_{k}"))
            .collect();
        let reduce = rng.gen_bool(0.25);
        let trip = *TRIPS.choose(rng).expect("non-empty");
        let depth = rng.gen_range(2..=5u32);
        let body = expr(rng, depth, &reads, ty == "int");
        let (text, dst_decl) = if reduce {
            (
                format!("for (int i = 0; i < {trip}; i++) {{\n        acc{j} += {body};\n    }}"),
                format!("{ty} acc{j};"),
            )
        } else {
            (
                format!("for (int i = 0; i < {trip}; i++) {{\n        w{j}[i] = {body};\n    }}"),
                format!("{ty} w{j}[{ARRAY_LEN}];"),
            )
        };
        let Some(key) = loop_key(&text, embed) else {
            continue;
        };
        let mut globals: Vec<String> = reads
            .iter()
            .filter(|r| text.contains(&format!("{r}[")))
            .map(|r| format!("{ty} {r}[{ARRAY_LEN}];"))
            .collect();
        globals.push(dst_decl);
        return DraftLoop { text, key, globals };
    }
}

/// One `hub-distinct` file: global arrays (one declarator per
/// declaration — the frontend rejects `float a[N], b[N];`), scalar
/// accumulators, and one function holding the loops.
fn assemble(index: usize, ty: &str, loops: &[DraftLoop]) -> Kernel {
    let mut source: String =
        loops
            .iter()
            .flat_map(|l| &l.globals)
            .fold(String::new(), |mut s, g| {
                s.push_str(g);
                s.push('\n');
                s
            });
    source.push_str(&format!(
        "void distinct_{index}({ty} alpha, {ty} beta) {{\n"
    ));
    for l in loops {
        source.push_str("    ");
        source.push_str(&l.text);
        source.push('\n');
    }
    source.push('}');
    Kernel::new(
        format!("distinct_{index}"),
        "distinct",
        source,
        ParamEnv::new().with("alpha", 3).with("beta", 5),
    )
}

/// A random expression tree over the loop's read arrays, the two scalar
/// parameters and literals. Reads never touch the written array, so
/// every loop is dependence-free.
fn expr(rng: &mut ChaCha8Rng, depth: u32, reads: &[String], int_ty: bool) -> String {
    if depth == 0 || rng.gen_bool(0.1) {
        return leaf(rng, reads, int_ty);
    }
    let ops: &[&str] = if int_ty {
        &["+", "-", "*", "&", "|", "^"]
    } else {
        &["+", "-", "*"]
    };
    let op = *ops.choose(rng).expect("non-empty");
    let lhs = expr(rng, depth - 1, reads, int_ty);
    let rhs = expr(rng, depth - 1, reads, int_ty);
    format!("({lhs} {op} {rhs})")
}

fn leaf(rng: &mut ChaCha8Rng, reads: &[String], int_ty: bool) -> String {
    let array = reads.choose(rng).expect("non-empty");
    match rng.gen_range(0..10u32) {
        0..=3 => format!("{array}[i]"),
        4 | 5 => format!("{array}[i + {}]", rng.gen_range(1..=8i64)),
        6 => format!("{array}[2 * i]"),
        7 => ["alpha", "beta"]
            .choose(rng)
            .expect("non-empty")
            .to_string(),
        _ if int_ty => format!("{}", rng.gen_range(2..=100i64)),
        _ => format!("{}.{}", rng.gen_range(0..=9i64), rng.gen_range(1..=9i64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_embed::extract_loop_samples;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        let embed = EmbedConfig::fast();
        let lines = |i: &Inputs| -> Vec<String> {
            (0..i.sequence.len())
                .map(|k| i.line(k).to_string())
                .collect()
        };
        assert_eq!(lines(&hub_repeat(7, 500)), lines(&hub_repeat(7, 500)));
        assert_ne!(lines(&hub_repeat(7, 500)), lines(&hub_repeat(8, 500)));
        assert_eq!(
            lines(&hub_distinct(7, 40, &embed)),
            lines(&hub_distinct(7, 40, &embed))
        );
        assert_ne!(
            lines(&hub_distinct(7, 40, &embed)),
            lines(&hub_distinct(8, 40, &embed))
        );
    }

    #[test]
    fn every_distinct_key_is_unseen_within_a_run() {
        let embed = EmbedConfig::fast();
        let inputs = hub_distinct(3, 150, &embed);
        let mut seen = HashSet::new();
        for f in &inputs.files {
            // The hub's own extraction pipeline, not the generator's.
            let sites = extract_loop_samples(&f.kernel.source, &embed).expect("parses");
            assert_eq!(sites.len(), LOOPS_PER_FILE, "{}", f.kernel.source);
            for s in sites {
                let key = nvc_serve::sample_key(&s.sample);
                assert!(seen.insert(key), "key {key:016x} repeats");
            }
        }
    }

    #[test]
    fn repeat_pool_repeats_text_and_shape() {
        let inputs = hub_repeat(5, 4000);
        assert_eq!(inputs.files.len(), REPEAT_POOL_GENERATED + 40);
        let share = inputs.text_repeat_share(4000);
        assert!(share > 0.5 && share < 1.0, "text repeat share {share}");
    }
}
