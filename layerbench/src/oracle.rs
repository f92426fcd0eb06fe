//! The correctness oracle: what the hub must answer for a file.
//!
//! The reference is an in-process `NeuroVectorizer` restored from the
//! served checkpoint, in strict kernel mode, deciding one sample at a
//! time (no batching; repeated samples reuse the first decision). A
//! reply fails when it is not `ok`, is malformed, carries a `(vf, if)`
//! other than the reference's for any loop, asks for a VF above
//! `nvc_ir::legal_max_vf` of the lowered loop that the reference did not
//! ask for, or injects a pragma text other than the reference's.
//!
//! When the policy itself asks for a VF above the legal bound, serving
//! that request is not a serving failure: pragmas are hints the compiler
//! clamps to legality (`nvc_vectorizer::plan::clamp_decision`). Such
//! loops are counted ([`Expected::over_legal`]) and reported as the
//! policy's `rl.over_legal_vf_share`.

use std::collections::HashMap;

use neurovectorizer::{Compiler, NeuroVectorizer, NvConfig};
use nvc_datasets::Kernel;
use nvc_embed::{extract_loop_samples, PathSample};
use nvc_frontend::{inject_pragmas, LoopPragma};
use nvc_serve::Json;
use nvc_vectorizer::{ActionSpace, VectorDecision};

/// The reference answer for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedLoop {
    pub line: u32,
    pub vf: u32,
    pub if_: u32,
    /// `nvc_ir::legal_max_vf` of the lowered loop at this header line.
    pub legal_max_vf: u32,
    /// Baseline-cost-model cycles ÷ cycles under (vf, if).
    pub speedup: f64,
}

/// The reference answer for one file.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub loops: Vec<ExpectedLoop>,
    /// The source with the reference pragmas injected.
    pub annotated: String,
}

impl Expected {
    /// Loops where the reference asks for a VF above the legal bound.
    pub fn over_legal(&self) -> usize {
        self.loops.iter().filter(|l| l.vf > l.legal_max_vf).count()
    }
}

pub struct Oracle {
    nv: NeuroVectorizer,
    space: ActionSpace,
    compiler: Compiler,
    decisions: HashMap<u64, VectorDecision>,
}

impl Oracle {
    /// A strict-mode reference restored from `checkpoint` (`None` keeps
    /// the untrained initialisation; self-tests use that).
    pub fn new(checkpoint: Option<&str>) -> Result<Oracle, String> {
        let cfg = NvConfig::fast().with_kernel_mode(nvc_nn::KernelMode::Strict);
        let space = ActionSpace::for_target(&cfg.target);
        let compiler = Compiler::new(cfg.target.clone());
        let mut nv = NeuroVectorizer::new(cfg);
        if let Some(text) = checkpoint {
            nv.restore(text).map_err(|e| format!("checkpoint: {e}"))?;
        }
        Ok(Oracle {
            nv,
            space,
            compiler,
            decisions: HashMap::new(),
        })
    }

    pub fn checkpoint_hash(&self) -> u64 {
        self.nv.checkpoint_hash()
    }

    fn decide(&mut self, sample: &PathSample) -> VectorDecision {
        let key = nvc_serve::sample_key(sample);
        if let Some(&d) = self.decisions.get(&key) {
            return d;
        }
        let d = self.nv.decide(sample, &self.space);
        self.decisions.insert(key, d);
        d
    }

    /// The reference answer for `kernel`.
    pub fn expect(&mut self, kernel: &Kernel) -> Result<Expected, String> {
        let sites = extract_loop_samples(&kernel.source, &self.nv.config().embed)
            .map_err(|e| format!("{}: frontend: {e}", kernel.name))?;
        let lowered = self
            .compiler
            .front_end(kernel)
            .map_err(|e| format!("{}: {e}", kernel.name))?;
        let decisions: Vec<VectorDecision> = sites.iter().map(|s| self.decide(&s.sample)).collect();
        let vectorizer = self.compiler.vectorizer();
        let mut loops = Vec::with_capacity(sites.len());
        for (site, &d) in sites.iter().zip(&decisions) {
            let low = lowered
                .iter()
                .find(|l| l.header_line == site.header_line)
                .ok_or_else(|| {
                    format!(
                        "{}: no lowered loop at line {}",
                        kernel.name, site.header_line
                    )
                })?;
            let base = vectorizer.compile_baseline(&low.ir).nest_cycles(&low.ir);
            let chosen = vectorizer.compile(&low.ir, d).nest_cycles(&low.ir);
            loops.push(ExpectedLoop {
                line: site.header_line,
                vf: d.vf,
                if_: d.if_,
                legal_max_vf: nvc_ir::legal_max_vf(&low.ir),
                speedup: base.max(1.0) / chosen.max(1.0),
            });
        }
        let pragmas: Vec<(u32, LoopPragma)> = loops
            .iter()
            .map(|l| {
                (
                    l.line,
                    LoopPragma {
                        vectorize_width: l.vf,
                        interleave_count: l.if_,
                    },
                )
            })
            .collect();
        let annotated = inject_pragmas(&kernel.source, &pragmas);
        loops.sort_by_key(|l| l.line);
        Ok(Expected { loops, annotated })
    }
}

/// Checks one reply line against the reference. Returns the number of
/// loops decided, or why the reply fails.
pub fn check_reply(reply: &str, expected: &Expected) -> Result<usize, String> {
    let v = Json::parse(reply).map_err(|e| format!("malformed reply: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let err = v.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("ok:false ({err})"));
    }
    let loops = v
        .get("loops")
        .and_then(Json::as_array)
        .ok_or("reply has no `loops` array")?;
    if loops.len() != expected.loops.len() {
        return Err(format!(
            "{} loops decided, reference has {}",
            loops.len(),
            expected.loops.len()
        ));
    }
    for (got, want) in loops.iter().zip(&expected.loops) {
        let field = |name: &str| {
            got.get(name)
                .and_then(Json::as_f64)
                .map(|x| x as u32)
                .ok_or_else(|| format!("loop without numeric `{name}`"))
        };
        let (line, vf, if_) = (field("line")?, field("vf")?, field("if")?);
        if line != want.line {
            return Err(format!("loop at line {line}, reference at {}", want.line));
        }
        if vf > want.legal_max_vf && vf != want.vf {
            return Err(format!(
                "line {line}: vf {vf} exceeds legal_max_vf {}",
                want.legal_max_vf
            ));
        }
        if (vf, if_) != (want.vf, want.if_) {
            return Err(format!(
                "line {line}: (vf, if) = ({vf}, {if_}), reference ({}, {})",
                want.vf, want.if_
            ));
        }
    }
    if v.get("source").and_then(Json::as_str) != Some(expected.annotated.as_str()) {
        return Err("annotated source differs from the reference".to_string());
    }
    Ok(loops.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_ir::ParamEnv;
    use nvc_serve::json::obj;

    /// A loop-carried distance-2 dependence caps the legal VF at 2.
    const SRC: &str = "float a[1024];\nfloat b[1024];\nvoid f() {\n    for (int i = 0; i < 1000; i++) {\n        a[i + 2] = a[i] * 0.5;\n    }\n    for (int i = 0; i < 1000; i++) {\n        b[i] = a[i] + 1.0;\n    }\n}";

    fn reply(expected: &Expected, loops: &[(u32, u32, u32)]) -> String {
        obj(vec![
            ("ok", Json::from(true)),
            ("source", Json::from(expected.annotated.as_str())),
            (
                "loops",
                Json::Arr(
                    loops
                        .iter()
                        .map(|&(line, vf, if_)| {
                            obj(vec![
                                ("line", Json::from(u64::from(line))),
                                ("vf", Json::from(vf)),
                                ("if", Json::from(if_)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    fn fixture() -> Expected {
        let mut oracle = Oracle::new(None).expect("oracle");
        oracle
            .expect(&Kernel::new("t", "test", SRC, ParamEnv::new()))
            .expect("reference")
    }

    #[test]
    fn the_reference_reply_passes() {
        let e = fixture();
        assert_eq!(e.loops.len(), 2);
        let ok: Vec<_> = e.loops.iter().map(|l| (l.line, l.vf, l.if_)).collect();
        assert_eq!(check_reply(&reply(&e, &ok), &e), Ok(2));
    }

    #[test]
    fn a_flipped_vf_fails() {
        let e = fixture();
        let mut loops: Vec<_> = e.loops.iter().map(|l| (l.line, l.vf, l.if_)).collect();
        // Any other VF of the action space that is still legal.
        let other = [1, 2, 4, 8, 16, 32, 64]
            .into_iter()
            .find(|&vf| vf != loops[1].1 && vf <= e.loops[1].legal_max_vf)
            .expect("another legal vf");
        loops[1].1 = other;
        assert!(check_reply(&reply(&e, &loops), &e)
            .unwrap_err()
            .contains("reference"));
    }

    #[test]
    fn a_vf_above_the_legal_bound_fails() {
        let mut e = fixture();
        assert_eq!(e.loops[0].legal_max_vf, 2, "distance-2 dependence");
        e.loops[0].vf = 2;
        let mut loops: Vec<_> = e.loops.iter().map(|l| (l.line, l.vf, l.if_)).collect();
        loops[0].1 = 8;
        assert!(check_reply(&reply(&e, &loops), &e)
            .unwrap_err()
            .contains("legal_max_vf"));
    }

    #[test]
    fn the_policys_own_over_legal_vf_is_counted_not_failed() {
        let mut e = fixture();
        e.loops[0].vf = 8;
        assert_eq!(e.over_legal(), 1);
        let loops: Vec<_> = e.loops.iter().map(|l| (l.line, l.vf, l.if_)).collect();
        assert_eq!(check_reply(&reply(&e, &loops), &e), Ok(2));
    }

    #[test]
    fn not_ok_and_malformed_replies_fail() {
        let e = fixture();
        assert!(check_reply(r#"{"ok":false,"error":"x"}"#, &e).is_err());
        assert!(check_reply("{\"ok\":tru", &e).is_err());
        assert!(check_reply("", &e).is_err());
    }
}
