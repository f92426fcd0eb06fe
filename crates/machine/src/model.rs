//! Steady-state loop timing: the heart of the performance model.
//!
//! One *block* is a single iteration of the vectorized-and-interleaved loop
//! body: it processes `VF × IF` source elements. The model computes the
//! block initiation interval
//!
//! ```text
//! II = max(ResMII, FrontEndMII, RecMII, MemMII)
//! ```
//!
//! * `ResMII` — micro-ops per resource class divided by its ports,
//! * `FrontEndMII` — total uops over the issue width (degraded when the
//!   body overflows the uop cache),
//! * `RecMII` — loop-carried recurrence latency: each reduction
//!   accumulator advances once per block, so a block cannot start before
//!   the previous block's accumulator update retires. This is *the* term
//!   interleaving amortizes: bigger blocks move more elements per RecMII.
//! * `MemMII` — per-level bytes moved per block over per-level bandwidth,
//!   plus unhidden gather latency.
//!
//! On top of the steady state the model adds per-execution costs: pipeline
//! fill, runtime trip-count guards, scalar remainder iterations, horizontal
//! reduction tails and register-spill traffic.

use crate::cache::{assign_residency, MemStream, StreamPattern};
use crate::target::{ResourceClass, TargetConfig};

/// A group of identical micro-ops within one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UopBundle {
    /// Executing resource.
    pub class: ResourceClass,
    /// Micro-ops per block (fractional values model amortized helpers).
    pub count: f64,
    /// Result latency in cycles (used for critical-path fill and divider
    /// occupancy).
    pub latency: f64,
}

impl UopBundle {
    /// Creates a bundle.
    pub fn new(class: ResourceClass, count: f64, latency: f64) -> Self {
        UopBundle {
            class,
            count,
            latency,
        }
    }
}

/// A loop-carried recurrence (one per reduction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recurrence {
    /// Latency of the combining operation (e.g. 4 cycles for an FP add).
    pub op_latency: f64,
}

/// Everything the machine model needs to time one innermost loop under a
/// particular vectorization decision. Built by `nvc-vectorizer`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopShape {
    /// Whole vector blocks executed per innermost-loop execution.
    pub blocks: u64,
    /// Elements processed per block (`VF × IF`).
    pub elems_per_block: u64,
    /// Vector/scalar work per block.
    pub uops: Vec<UopBundle>,
    /// Loop-carried recurrences.
    pub recurrences: Vec<Recurrence>,
    /// Memory streams (residency is assigned inside the simulator).
    pub streams: Vec<MemStream>,
    /// Elements executed in the scalar remainder loop.
    pub remainder_elems: u64,
    /// Micro-ops of one scalar iteration (for the remainder).
    pub scalar_uops_per_iter: f64,
    /// Fixed per-execution uops: horizontal reduction tail, accumulator
    /// setup, final-value extraction.
    pub per_execution_overhead_uops: f64,
    /// Live vector registers in the steady state (accumulators + temps).
    pub live_vector_regs: u32,
    /// True when the trip count is unknown at compile time and the vector
    /// loop is guarded by runtime checks.
    pub runtime_trip_check: bool,
}

/// What limited the loop's throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Execution-port pressure.
    Ports,
    /// Instruction issue (front end / uop-cache overflow).
    FrontEnd,
    /// Loop-carried recurrence latency.
    Recurrence,
    /// Cache or memory bandwidth / gather latency.
    Memory,
    /// Dominated by remainder/overhead (tiny trip counts).
    Overhead,
}

/// Timing result for one innermost-loop execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopTiming {
    /// Total cycles per innermost-loop execution.
    pub cycles: f64,
    /// Steady-state initiation interval per block.
    pub ii: f64,
    /// Cycles spent in the scalar remainder.
    pub remainder_cycles: f64,
    /// Fixed per-execution cycles (fill, checks, tails, spill refills).
    pub overhead_cycles: f64,
    /// Dominant limiter.
    pub bottleneck: Bottleneck,
}

/// Times one innermost-loop execution on `target`.
///
/// Residency is assigned to the shape's memory streams internally; the
/// input is not mutated.
pub fn simulate_loop(shape: &LoopShape, target: &TargetConfig) -> LoopTiming {
    let mut streams = shape.streams.clone();
    assign_residency(&mut streams, target);

    // ---- Register spills -------------------------------------------------
    // Live registers beyond the architectural file spill; the traffic is
    // store-forwarded in L1, so the cost is front-end/port throughput only
    // (about one reload-store pair per excess register per block, half of
    // which the allocator hides by rematerialization).
    let excess_regs = shape
        .live_vector_regs
        .saturating_sub(target.num_vector_regs) as f64;
    let mut uops = shape.uops.clone();
    if excess_regs > 0.0 {
        uops.push(UopBundle::new(ResourceClass::VLoad, excess_regs * 0.5, 4.0));
        uops.push(UopBundle::new(
            ResourceClass::VStore,
            excess_regs * 0.5,
            1.0,
        ));
    }

    // ---- ResMII ----------------------------------------------------------
    let mut res_mii = 0.0f64;
    for class in ResourceClass::ALL {
        let mut demand = 0.0;
        for u in &uops {
            if u.class == class {
                // Divides are barely pipelined: occupancy ≈ latency / 2.
                let occupancy = if class == ResourceClass::VDiv {
                    u.count * (u.latency / 2.0).max(1.0)
                } else {
                    u.count
                };
                demand += occupancy;
            }
        }
        res_mii = res_mii.max(demand / target.ports.get(class));
    }

    // ---- Front end -------------------------------------------------------
    let total_uops: f64 = uops.iter().map(|u| u.count).sum();
    let mut issue = target.issue_width;
    if total_uops > target.uop_cache {
        // Body no longer fits the uop cache: legacy decode feeds the core.
        issue *= 0.75;
        if total_uops > 3.0 * target.uop_cache {
            issue *= 0.8;
        }
    }
    let fe_mii = total_uops / issue;

    // ---- RecMII ----------------------------------------------------------
    let rec_mii = shape
        .recurrences
        .iter()
        .map(|r| r.op_latency)
        .fold(0.0, f64::max);

    // ---- Memory ----------------------------------------------------------
    let mut mem_mii = 0.0f64;
    let mut gather_latency = 0.0f64;
    for s in &streams {
        let spec = target.memory[s.level.index()];
        mem_mii += s.bytes_per_block / spec.bytes_per_cycle;
        if matches!(s.pattern, StreamPattern::Gather) {
            // Gathers expose a fraction of the access latency per block: the
            // prefetcher cannot follow data-dependent addresses. Several
            // gather lanes overlap in the OoO window (≈8 in flight).
            gather_latency += spec.latency * (s.gather_lanes_per_block / 8.0).max(1.0) * 0.25;
        }
    }
    mem_mii += gather_latency;

    let ii = res_mii.max(fe_mii).max(rec_mii).max(mem_mii).max(0.25);

    // ---- Per-execution costs ----------------------------------------------
    // Pipeline fill: a fraction of the body's critical path. Out-of-order
    // execution overlaps the drain of one innermost-loop execution with
    // the fill of the next, so only part of the path is exposed per entry.
    let crit_path: f64 = uops
        .iter()
        .map(|u| u.latency)
        .fold(0.0, f64::max)
        .max(rec_mii);
    let mut overhead = crit_path * 0.25 + 4.0;
    overhead += shape.per_execution_overhead_uops / target.issue_width;
    if shape.runtime_trip_check {
        // Trip-count guard + pointer checks before entering the vector body.
        overhead += 8.0;
    }

    let remainder_cycles =
        shape.remainder_elems as f64 * (shape.scalar_uops_per_iter / target.issue_width).max(1.0);

    let steady = ii * shape.blocks as f64;
    let cycles = steady + remainder_cycles + overhead;

    // ---- Bottleneck classification ----------------------------------------
    let bottleneck = if steady < remainder_cycles + overhead {
        Bottleneck::Overhead
    } else if ii == mem_mii {
        Bottleneck::Memory
    } else if ii == rec_mii {
        Bottleneck::Recurrence
    } else if ii == fe_mii {
        Bottleneck::FrontEnd
    } else {
        Bottleneck::Ports
    };

    LoopTiming {
        cycles,
        ii,
        remainder_cycles,
        overhead_cycles: overhead,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::StreamPattern;

    fn target() -> TargetConfig {
        TargetConfig::i7_8559u()
    }

    fn basic_shape() -> LoopShape {
        LoopShape {
            blocks: 128,
            elems_per_block: 8,
            uops: vec![
                UopBundle::new(ResourceClass::VLoad, 1.0, 4.0),
                UopBundle::new(ResourceClass::VAlu, 1.0, 1.0),
                UopBundle::new(ResourceClass::VStore, 1.0, 1.0),
                UopBundle::new(ResourceClass::Scalar, 2.0, 1.0),
            ],
            recurrences: vec![],
            streams: vec![
                MemStream::new(32.0, 4096, StreamPattern::Contiguous, false),
                MemStream::new(32.0, 4096, StreamPattern::Contiguous, true),
            ],
            remainder_elems: 0,
            scalar_uops_per_iter: 5.0,
            per_execution_overhead_uops: 2.0,
            live_vector_regs: 4,
            runtime_trip_check: false,
        }
    }

    #[test]
    fn ii_respects_port_limits() {
        let t = target();
        let mut s = basic_shape();
        // 6 VAlu uops over 2 ports → ResMII ≥ 3.
        s.uops = vec![UopBundle::new(ResourceClass::VAlu, 6.0, 1.0)];
        let timing = simulate_loop(&s, &t);
        assert!(timing.ii >= 3.0 - 1e-9);
    }

    #[test]
    fn recurrence_bounds_ii() {
        let t = target();
        let mut s = basic_shape();
        s.recurrences = vec![Recurrence { op_latency: 4.0 }];
        s.uops = vec![UopBundle::new(ResourceClass::VAlu, 1.0, 4.0)];
        let timing = simulate_loop(&s, &t);
        assert!(timing.ii >= 4.0 - 1e-9);
        assert_eq!(timing.bottleneck, Bottleneck::Recurrence);
    }

    #[test]
    fn bigger_blocks_amortize_recurrence() {
        // Same total elements; one config interleaves ×4. The interleaved
        // version must be faster because RecMII stalls per *block*.
        let t = target();
        let mut narrow = basic_shape();
        narrow.recurrences = vec![Recurrence { op_latency: 4.0 }];
        narrow.blocks = 512;
        narrow.elems_per_block = 8;

        let mut wide = narrow.clone();
        wide.blocks = 128;
        wide.elems_per_block = 32;
        // ×4 work per block.
        for u in &mut wide.uops {
            u.count *= 4.0;
        }
        for s in &mut wide.streams {
            s.bytes_per_block *= 4.0;
        }
        let tn = simulate_loop(&narrow, &t);
        let tw = simulate_loop(&wide, &t);
        assert!(
            tw.cycles < tn.cycles * 0.5,
            "interleaving should amortize the chain: wide={} narrow={}",
            tw.cycles,
            tn.cycles
        );
    }

    #[test]
    fn memory_bound_when_streaming_from_dram() {
        let t = target();
        let mut s = basic_shape();
        s.streams = vec![MemStream::new(
            256.0,
            64 * 1024 * 1024,
            StreamPattern::Contiguous,
            false,
        )];
        let timing = simulate_loop(&s, &t);
        assert_eq!(timing.bottleneck, Bottleneck::Memory);
        // 256 bytes over 7 B/cy ≈ 36.6 cycles per block.
        assert!(timing.ii > 30.0);
    }

    #[test]
    fn l1_streams_are_cheap() {
        let t = target();
        let s = basic_shape();
        let timing = simulate_loop(&s, &t);
        // 64 bytes per block over 64 B/cy = 1 cycle; ports allow ~1.5.
        assert!(timing.ii < 3.0);
    }

    #[test]
    fn gathers_add_latency() {
        let t = target();
        let mut with_gather = basic_shape();
        let mut g = MemStream::new(64.0, 4096, StreamPattern::Gather, false);
        g.gather_lanes_per_block = 8.0;
        with_gather.streams.push(g);
        let without = simulate_loop(&basic_shape(), &t);
        let with = simulate_loop(&with_gather, &t);
        assert!(with.ii > without.ii);
    }

    #[test]
    fn register_spills_penalize_throughput() {
        let t = target();
        let mut s = basic_shape();
        s.live_vector_regs = 48; // 32 over the 16-register file
        let spilled = simulate_loop(&s, &t);
        let mut ok = basic_shape();
        ok.live_vector_regs = 8;
        let clean = simulate_loop(&ok, &t);
        assert!(spilled.cycles > clean.cycles);
    }

    #[test]
    fn uop_cache_overflow_slows_issue() {
        let t = target();
        // Spread uops across classes so the front end (not a single port)
        // is the binding resource.
        let spread = |n: f64| {
            vec![
                UopBundle::new(ResourceClass::VAlu, n / 4.0, 1.0),
                UopBundle::new(ResourceClass::VMul, n / 4.0, 4.0),
                UopBundle::new(ResourceClass::VLoad, n / 4.0, 4.0),
                UopBundle::new(ResourceClass::Scalar, n / 4.0, 1.0),
            ]
        };
        let mut s = basic_shape();
        s.streams.clear();
        s.uops = spread(400.0);
        let fits = simulate_loop(&s, &t);
        s.uops = spread(4000.0);
        let overflow = simulate_loop(&s, &t);
        // 10× the uops must cost *more* than 10× the II once the body
        // overflows the uop cache.
        assert!(overflow.ii > fits.ii * 10.0 * 1.05);
    }

    #[test]
    fn remainder_dominates_tiny_trips() {
        let t = target();
        let mut s = basic_shape();
        s.blocks = 0;
        s.remainder_elems = 7;
        let timing = simulate_loop(&s, &t);
        assert_eq!(timing.bottleneck, Bottleneck::Overhead);
        assert!(timing.remainder_cycles > 0.0);
    }

    #[test]
    fn runtime_checks_cost_fixed_cycles() {
        let t = target();
        let mut s = basic_shape();
        let without = simulate_loop(&s, &t);
        s.runtime_trip_check = true;
        let with = simulate_loop(&s, &t);
        assert!((with.cycles - without.cycles - 8.0).abs() < 1e-9);
    }

    #[test]
    fn divider_occupancy_is_heavy() {
        let t = target();
        let mut s = basic_shape();
        s.uops.push(UopBundle::new(ResourceClass::VDiv, 2.0, 14.0));
        let timing = simulate_loop(&s, &t);
        // 2 divides × 7 occupancy on one port.
        assert!(timing.ii >= 14.0 - 1e-9);
    }

    #[test]
    fn cycles_scale_linearly_with_blocks() {
        let t = target();
        let mut s = basic_shape();
        s.blocks = 100;
        let a = simulate_loop(&s, &t);
        s.blocks = 200;
        let b = simulate_loop(&s, &t);
        let delta = b.cycles - a.cycles;
        assert!((delta - 100.0 * a.ii).abs() < 1e-6);
    }
}
