//! Benchmark kernels and the synthetic training dataset.
//!
//! §3.2 of the paper: "we built a dataset that includes loops only. We
//! built generators that generate more than 10,000 synthetic loop examples
//! automatically from the LLVM vectorization test-suite … some new tests
//! are made by changing the names of the parameters … the stride, the
//! number of iterations, the functionality, the instructions, and the
//! number of nested loops."
//!
//! * [`generator`] — the seeded loop generator: 16 kernel families
//!   randomized along exactly those axes, able to emit well over 10,000
//!   distinct compilable kernels;
//! * [`suite`] — a fixed per-family selection standing in for the LLVM
//!   vectorizer test suite (Figure 2);
//! * [`eval`] — the 12 held-out evaluation benchmarks of Figure 7,
//!   covering the feature list in §4 (predicates, strided accesses,
//!   bitwise operations, unknown loop bounds, if statements, unknown
//!   misalignment, multidimensional arrays, summation reduction, type
//!   conversions, different data types);
//! * [`polybench`] — six PolyBench-style linear-algebra/stencil kernels
//!   (Figure 8);
//! * [`mibench`] — six MiBench-style programs where loops are a minor
//!   fraction of the runtime (Figure 9).

pub mod eval;
pub mod generator;
pub mod mibench;
pub mod polybench;
pub mod suite;

use nvc_ir::ParamEnv;

/// One benchmark program: source text plus the runtime bindings needed to
/// execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Unique name.
    pub name: String,
    /// C source text (parses with `nvc-frontend`).
    pub source: String,
    /// Runtime parameter values and array sizes.
    pub env: ParamEnv,
    /// Abstract non-loop instructions executed per invocation (models the
    /// scalar-dominated parts of MiBench programs; 0 for pure loop
    /// kernels).
    pub scalar_work: u64,
    /// Generator family or suite this kernel belongs to.
    pub family: String,
}

impl Kernel {
    /// Creates a pure-loop kernel.
    pub fn new(
        name: impl Into<String>,
        family: impl Into<String>,
        source: impl Into<String>,
        env: ParamEnv,
    ) -> Self {
        Kernel {
            name: name.into(),
            source: source.into(),
            env,
            scalar_work: 0,
            family: family.into(),
        }
    }

    /// Adds scalar (non-loop) work to the kernel.
    pub fn with_scalar_work(mut self, instrs: u64) -> Self {
        self.scalar_work = instrs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::parse_translation_unit;
    use nvc_ir::lower_innermost_loops;

    /// Every kernel from every source must parse and lower.
    #[test]
    fn all_fixed_kernels_parse_and_lower() {
        let mut all = Vec::new();
        all.extend(suite::llvm_suite());
        all.extend(eval::eval_benchmarks());
        all.extend(polybench::polybench());
        all.extend(mibench::mibench());
        assert!(all.len() >= 12 + 6 + 6);
        for k in &all {
            let tu = parse_translation_unit(&k.source)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}\n{}", k.name, k.source));
            let loops = lower_innermost_loops(&tu, &k.source, &k.env)
                .unwrap_or_else(|e| panic!("{} does not lower: {e}", k.name));
            assert!(!loops.is_empty(), "{} has no loops", k.name);
        }
    }

    #[test]
    fn generator_reaches_paper_scale() {
        // >10,000 synthetic examples (§3.2). Generating all of them here
        // would slow the test suite; generate a slice and extrapolate by
        // uniqueness rate.
        let kernels = generator::generate(42, 600);
        assert_eq!(kernels.len(), 600);
        let unique: std::collections::HashSet<&str> =
            kernels.iter().map(|k| k.source.as_str()).collect();
        assert!(
            unique.len() > 540,
            "only {} unique of 600 — not enough diversity to reach 10k",
            unique.len()
        );
    }

    #[test]
    fn generated_kernels_parse_and_lower() {
        for k in generator::generate(7, 300) {
            let tu = parse_translation_unit(&k.source)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}\n{}", k.name, k.source));
            let loops = lower_innermost_loops(&tu, &k.source, &k.env)
                .unwrap_or_else(|e| panic!("{} does not lower: {e}", k.name));
            assert!(!loops.is_empty(), "{} has no loops:\n{}", k.name, k.source);
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = generator::generate(123, 50);
        let b = generator::generate(123, 50);
        assert_eq!(a, b);
        let c = generator::generate(124, 50);
        assert_ne!(a, c);
    }
}
