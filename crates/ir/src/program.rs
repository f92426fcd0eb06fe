//! Runtime parameter bindings and whole-program IR containers.

use std::collections::BTreeMap;

use crate::lower::LoweredLoop;
use crate::types::ScalarType;

/// Runtime values for function parameters and array-size estimates.
///
/// The paper's framework compiles a program and *runs* it; loop bounds that
/// are function parameters (`for (i = 0; i < N; i++)`) are unknown to the
/// compiler but have concrete values at run time. A [`ParamEnv`] carries
/// those concrete values so the performance model can execute the loop,
/// while the IR still records the bound as [`crate::TripCount::Runtime`] so
/// the *compiler-side* decisions (baseline cost model, remainder handling)
/// see exactly what LLVM would see.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParamEnv {
    values: BTreeMap<String, i64>,
    array_sizes: BTreeMap<String, u64>,
    default_trip: u64,
}

impl ParamEnv {
    /// Creates an empty environment with a default trip estimate of 1024.
    pub fn new() -> Self {
        Self {
            values: BTreeMap::new(),
            array_sizes: BTreeMap::new(),
            default_trip: 1024,
        }
    }

    /// Binds scalar parameter `name` to `value` (builder style).
    pub fn with(mut self, name: impl Into<String>, value: i64) -> Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Declares the element count of a pointer-parameter array.
    pub fn with_array_len(mut self, name: impl Into<String>, elements: u64) -> Self {
        self.array_sizes.insert(name.into(), elements);
        self
    }

    /// Sets the fallback trip count used for loops whose bounds cannot be
    /// evaluated (e.g. `while` loops).
    pub fn with_default_trip(mut self, trip: u64) -> Self {
        self.default_trip = trip;
        self
    }

    /// Looks up a scalar binding.
    pub fn value(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }

    /// Looks up an array length binding (in elements).
    pub fn array_len(&self, name: &str) -> Option<u64> {
        self.array_sizes.get(name).copied()
    }

    /// The fallback trip count.
    pub fn default_trip(&self) -> u64 {
        self.default_trip
    }
}

/// Shape and placement information for one array referenced by a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Array name.
    pub name: String,
    /// Element type.
    pub ty: ScalarType,
    /// Dimensions (empty when unknown — pointer parameters).
    pub dims: Vec<u64>,
    /// Known alignment in bytes (16 for globals by default, per common
    /// compiler/linker behaviour; larger with `aligned(N)`).
    pub alignment: u32,
    /// Total footprint in bytes.
    pub bytes: u64,
}

/// The lowered form of a whole kernel: every innermost loop plus a measure
/// of non-loop (scalar) work.
///
/// MiBench-style programs (§4.1 of the paper) spend most of their time
/// outside loops; `scalar_work` models that portion so end-to-end program
/// speedups stay modest even when loops vectorize well, reproducing the
/// ~1.1× average of Figure 9.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramIr {
    /// Program name (for reports).
    pub name: String,
    /// Innermost loops in source order.
    pub loops: Vec<LoweredLoop>,
    /// Abstract non-loop instruction count executed per invocation.
    pub scalar_work: u64,
}

impl ProgramIr {
    /// Creates a program IR with no scalar work.
    pub fn new(name: impl Into<String>, loops: Vec<LoweredLoop>) -> Self {
        Self {
            name: name.into(),
            loops,
            scalar_work: 0,
        }
    }

    /// Sets the scalar (non-loop) work, in abstract instructions.
    pub fn with_scalar_work(mut self, instrs: u64) -> Self {
        self.scalar_work = instrs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builder_and_lookup() {
        let env = ParamEnv::new()
            .with("n", 512)
            .with("m", 8)
            .with_array_len("a", 4096)
            .with_default_trip(99);
        assert_eq!(env.value("n"), Some(512));
        assert_eq!(env.value("missing"), None);
        assert_eq!(env.array_len("a"), Some(4096));
        assert_eq!(env.default_trip(), 99);
    }

    #[test]
    fn default_trip_defaults_to_1024() {
        assert_eq!(ParamEnv::new().default_trip(), 1024);
    }

    #[test]
    fn program_ir_scalar_work() {
        let p = ProgramIr::new("prog", vec![]).with_scalar_work(10_000);
        assert_eq!(p.scalar_work, 10_000);
        assert_eq!(p.name, "prog");
    }
}
