//! Polyhedral-lite loop optimizer — the reproduction's stand-in for Polly.
//!
//! §2.2 of the paper: "Polly uses an abstract mathematical representation
//! based on integer polyhedra to analyze and optimize the memory access
//! pattern of a program. Polly performs classical loop transformations,
//! especially **tiling and loop fusion** to improve data-locality."
//!
//! This crate implements the same three transformations as conservative
//! source-to-source rewrites over the [`nvc_frontend`] AST:
//!
//! * [`interchange`] — swaps a perfectly nested loop pair when that turns
//!   the innermost dominant access stride into unit stride (the classic
//!   `ijk → ikj` matmul win);
//! * [`tiling`] — rectangular tiling of 2- and 3-deep nests with large
//!   constant trip counts, shrinking per-tile working sets into cache;
//! * [`fusion`] — merges adjacent loops with identical headers when no
//!   producer/consumer distance exists, removing redundant streaming
//!   passes.
//!
//! Transformed sources re-enter the standard pipeline (parse → lower →
//! vectorize → simulate), so Polly and the RL agent compose exactly as the
//! paper's "combining Polly and deep RL" experiment does (§4.1).
//!
//! The legality checks are deliberately conservative: a transformation is
//! applied only when every affected access is affine and provably
//! dependence-free in the relevant direction, matching how Polly bails on
//! anything it cannot model polyhedrally.

pub mod analysis;
pub mod fusion;
pub mod interchange;
pub mod tiling;

use nvc_frontend::{parse_translation_unit, print_translation_unit, FrontendError};

/// What the optimizer did to a unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PollyReport {
    /// Loop pairs interchanged.
    pub interchanged: usize,
    /// Nests tiled.
    pub tiled: usize,
    /// Loop pairs fused.
    pub fused: usize,
}

impl PollyReport {
    /// True when no transformation applied.
    pub fn is_noop(&self) -> bool {
        self.interchanged == 0 && self.tiled == 0 && self.fused == 0
    }
}

/// Options controlling the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollyConfig {
    /// Tile edge length (Polly's default is 32).
    pub tile_size: i64,
    /// Minimum constant trip count before tiling pays for itself.
    pub min_trip_for_tiling: i64,
    /// Enable interchange.
    pub interchange: bool,
    /// Enable tiling.
    pub tiling: bool,
    /// Enable fusion.
    pub fusion: bool,
}

impl Default for PollyConfig {
    fn default() -> Self {
        PollyConfig {
            tile_size: 32,
            min_trip_for_tiling: 128,
            interchange: true,
            tiling: true,
            fusion: true,
        }
    }
}

/// Runs the full Polly-lite pipeline on C source, returning the optimized
/// source and a report.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the source does not parse. The output is
/// guaranteed to re-parse (it is produced by the AST printer).
pub fn optimize_source(
    source: &str,
    cfg: &PollyConfig,
) -> Result<(String, PollyReport), FrontendError> {
    let mut tu = parse_translation_unit(source)?;
    let mut report = PollyReport::default();
    // Interchange first: fusing adjacent nests would hide perfect nests
    // from the interchange legality check (mvt's second nest, for
    // example).
    if cfg.interchange {
        report.interchanged += interchange::interchange_in_unit(&mut tu);
    }
    if cfg.tiling {
        report.tiled += tiling::tile_in_unit(&mut tu, cfg.tile_size, cfg.min_trip_for_tiling);
    }
    if cfg.fusion {
        report.fused += fusion::fuse_in_unit(&mut tu);
    }
    let printed = print_translation_unit(&tu);
    debug_assert!(
        parse_translation_unit(&printed).is_ok(),
        "polly output must re-parse"
    );
    Ok((printed, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEMM: &str = "float A[256][256]; float B[256][256]; float C[256][256];
void gemm() {
    for (int i = 0; i < 256; i++) {
        for (int j = 0; j < 256; j++) {
            for (int k = 0; k < 256; k++) {
                C[i][j] += A[i][k] * B[k][j];
            }
        }
    }
}";

    #[test]
    fn gemm_is_transformed_and_reparses() {
        let (out, report) = optimize_source(GEMM, &PollyConfig::default()).unwrap();
        assert!(!report.is_noop(), "gemm should be optimized: {report:?}");
        // Output must be valid C in our subset.
        parse_translation_unit(&out).expect("optimized source re-parses");
    }

    #[test]
    fn gemm_interchange_makes_inner_stride_unit() {
        let cfg = PollyConfig {
            tiling: false,
            fusion: false,
            ..PollyConfig::default()
        };
        let (out, report) = optimize_source(GEMM, &cfg).unwrap();
        assert_eq!(report.interchanged, 1);
        // After j↔k interchange the innermost loop is j: B[k][j] and
        // C[i][j] are unit stride.
        let pos_j = out.find("for (int j").expect("j loop");
        let pos_k = out.find("for (int k").expect("k loop");
        assert!(pos_k < pos_j, "k should now be outside j:\n{out}");
    }

    #[test]
    fn small_trip_counts_are_not_tiled() {
        let src = "float a[64][64];\nvoid f() { for (int i = 0; i < 64; i++) { for (int j = 0; j < 64; j++) { a[i][j] = 0.0; } } }";
        let (_, report) = optimize_source(src, &PollyConfig::default()).unwrap();
        assert_eq!(report.tiled, 0);
    }

    #[test]
    fn scalar_code_is_untouched() {
        let src = "int x;\nvoid f(int n) { x = n * 2; }";
        let (out, report) = optimize_source(src, &PollyConfig::default()).unwrap();
        assert!(report.is_noop());
        assert!(out.contains("x = n * 2"));
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let cfg = PollyConfig {
            interchange: false,
            tiling: false,
            fusion: false,
            ..PollyConfig::default()
        };
        let (_, report) = optimize_source(GEMM, &cfg).unwrap();
        assert!(report.is_noop());
    }
}
