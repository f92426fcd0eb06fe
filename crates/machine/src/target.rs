//! Target machine description.

/// Execution resource classes. Each maps to a number of ports on the target
/// (see [`PortCounts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// Vector integer/float ALU (add, sub, compare, blend, shuffle, logic).
    VAlu,
    /// Vector multiply / FMA.
    VMul,
    /// Divide / sqrt (non-pipelined; occupancy handled by the scheduler).
    VDiv,
    /// Vector/scalar load.
    VLoad,
    /// Vector/scalar store.
    VStore,
    /// Scalar bookkeeping (induction update, branches, address generation).
    Scalar,
}

impl ResourceClass {
    /// All classes, for iteration.
    pub const ALL: [ResourceClass; 6] = [
        ResourceClass::VAlu,
        ResourceClass::VMul,
        ResourceClass::VDiv,
        ResourceClass::VLoad,
        ResourceClass::VStore,
        ResourceClass::Scalar,
    ];
}

/// Number of issue ports per resource class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortCounts {
    /// Vector ALU ports.
    pub valu: f64,
    /// Vector multiply ports.
    pub vmul: f64,
    /// Divider units.
    pub vdiv: f64,
    /// Load ports.
    pub vload: f64,
    /// Store ports.
    pub vstore: f64,
    /// Scalar ports.
    pub scalar: f64,
}

impl PortCounts {
    /// Ports available for `class`.
    pub fn get(&self, class: ResourceClass) -> f64 {
        match class {
            ResourceClass::VAlu => self.valu,
            ResourceClass::VMul => self.vmul,
            ResourceClass::VDiv => self.vdiv,
            ResourceClass::VLoad => self.vload,
            ResourceClass::VStore => self.vstore,
            ResourceClass::Scalar => self.scalar,
        }
    }
}

/// One level of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Load-to-use latency in cycles.
    pub latency: f64,
    /// Sustained bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
}

/// Full description of the modelled CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetConfig {
    /// Human-readable name.
    pub name: String,
    /// Vector register width in bits for floating-point operations
    /// (AVX = 256).
    pub vector_bits: u32,
    /// Vector width usable by *integer* operations. AVX1 (the paper's
    /// testbed configuration) executes integer SIMD at 128 bits; this is
    /// why LLVM's VF cap for `i32` loops is 4 there.
    pub int_vector_bits: u32,
    /// Architectural vector registers.
    pub num_vector_regs: u32,
    /// Micro-ops issued per cycle.
    pub issue_width: f64,
    /// Ports per resource class.
    pub ports: PortCounts,
    /// L1D, L2, L3 then memory, ordered smallest to largest. The last entry
    /// is main memory (capacity ignored).
    pub memory: [CacheSpec; 4],
    /// Core frequency in GHz (for cycle→seconds conversion).
    pub freq_ghz: f64,
    /// Micro-op cache capacity (in uops); loop bodies larger than this
    /// issue slower.
    pub uop_cache: f64,
    /// Maximum VF exposed to the pragma action space (`MAX_VF` in §3.3).
    pub max_vf: u32,
    /// Maximum IF exposed to the pragma action space (`MAX_IF` in §3.3).
    pub max_if: u32,
}

impl TargetConfig {
    /// The paper's testbed: 4-core Intel i7-8559U (Coffee Lake, AVX2),
    /// 2.7 GHz base / 4.5 GHz turbo, 16 GB LPDDR3-2133.
    ///
    /// Port counts and latencies follow public instruction tables for the
    /// microarchitecture class; bandwidths are per-core sustained figures.
    pub fn i7_8559u() -> Self {
        TargetConfig {
            name: "i7-8559u".to_string(),
            vector_bits: 256,
            int_vector_bits: 128,
            num_vector_regs: 16,
            issue_width: 4.0,
            ports: PortCounts {
                valu: 2.0,
                vmul: 2.0,
                vdiv: 1.0,
                vload: 2.0,
                vstore: 1.0,
                scalar: 2.0,
            },
            memory: [
                CacheSpec {
                    capacity: 32 * 1024,
                    latency: 4.0,
                    bytes_per_cycle: 96.0,
                },
                CacheSpec {
                    capacity: 256 * 1024,
                    latency: 12.0,
                    bytes_per_cycle: 32.0,
                },
                CacheSpec {
                    capacity: 8 * 1024 * 1024,
                    latency: 38.0,
                    bytes_per_cycle: 14.0,
                },
                CacheSpec {
                    capacity: u64::MAX,
                    latency: 160.0,
                    bytes_per_cycle: 7.0,
                },
            ],
            freq_ghz: 3.6,
            uop_cache: 1536.0,
            max_vf: 64,
            max_if: 16,
        }
    }

    /// Lanes of a `bytes`-wide element in one native vector register.
    /// Integer and floating-point element types may have different widths
    /// (AVX1 integer SIMD is 128-bit).
    pub fn native_lanes(&self, elem_bytes: u32, is_float: bool) -> u32 {
        let bits = if is_float {
            self.vector_bits
        } else {
            self.int_vector_bits
        };
        (bits / 8 / elem_bytes.max(1)).max(1)
    }

    /// Converts cycles to seconds at the configured frequency.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// The discrete VF action values `1, 2, 4, …, max_vf` (§3.3, eq. 3).
    pub fn vf_candidates(&self) -> Vec<u32> {
        pow2_up_to(self.max_vf)
    }

    /// The discrete IF action values `1, 2, 4, …, max_if`.
    pub fn if_candidates(&self) -> Vec<u32> {
        pow2_up_to(self.max_if)
    }
}

impl Default for TargetConfig {
    fn default() -> Self {
        Self::i7_8559u()
    }
}

fn pow2_up_to(max: u32) -> Vec<u32> {
    let mut v = Vec::new();
    let mut x = 1u32;
    while x <= max {
        v.push(x);
        x <<= 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_testbed() {
        let t = TargetConfig::default();
        assert_eq!(t.vector_bits, 256);
        assert_eq!(t.num_vector_regs, 16);
        assert_eq!(t.max_vf, 64);
        assert_eq!(t.max_if, 16);
    }

    #[test]
    fn action_space_matches_figure1_grid() {
        // 7 VFs × 5 IFs = 35 configurations, as in §2.1.
        let t = TargetConfig::i7_8559u();
        assert_eq!(t.vf_candidates(), vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(t.if_candidates(), vec![1, 2, 4, 8, 16]);
        assert_eq!(t.vf_candidates().len() * t.if_candidates().len(), 35);
    }

    #[test]
    fn native_lanes_by_type() {
        let t = TargetConfig::i7_8559u();
        assert_eq!(t.native_lanes(4, true), 8); // f32: 256-bit
        assert_eq!(t.native_lanes(8, true), 4); // f64
        assert_eq!(t.native_lanes(4, false), 4); // i32: AVX1 = 128-bit
        assert_eq!(t.native_lanes(1, false), 16); // i8
    }

    #[test]
    fn memory_levels_are_monotonic() {
        let t = TargetConfig::i7_8559u();
        for w in t.memory.windows(2) {
            assert!(w[0].capacity < w[1].capacity);
            assert!(w[0].latency < w[1].latency);
            assert!(w[0].bytes_per_cycle > w[1].bytes_per_cycle);
        }
    }

    #[test]
    fn cycle_conversion() {
        let t = TargetConfig::i7_8559u();
        let s = t.cycles_to_seconds(3.6e9);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn port_lookup_covers_all_classes() {
        let t = TargetConfig::i7_8559u();
        for c in ResourceClass::ALL {
            assert!(t.ports.get(c) > 0.0);
        }
    }
}
