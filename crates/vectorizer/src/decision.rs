//! The `(VF, IF)` decision type and the discrete pragma action space.

use std::fmt;

use nvc_machine::TargetConfig;

/// A vectorization decision: the two factors the agent chooses (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorDecision {
    /// Vectorization factor (instructions packed together).
    pub vf: u32,
    /// Interleave factor (iterations interleaved / accumulator copies).
    pub if_: u32,
}

impl VectorDecision {
    /// Creates a decision; factors are rounded down to powers of two and
    /// clamped to at least 1 (LLVM only supports power-of-two factors,
    /// §3.3).
    pub fn new(vf: u32, if_: u32) -> Self {
        Self {
            vf: floor_pow2(vf.max(1)),
            if_: floor_pow2(if_.max(1)),
        }
    }

    /// The scalar (non-vectorized, non-interleaved) decision.
    pub fn scalar() -> Self {
        Self { vf: 1, if_: 1 }
    }

    /// Elements processed per vector block.
    pub fn elems_per_block(self) -> u64 {
        u64::from(self.vf) * u64::from(self.if_)
    }
}

impl fmt::Display for VectorDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(VF={}, IF={})", self.vf, self.if_)
    }
}

/// The discrete action space of the RL agent: the cross product of the
/// target's VF and IF candidates (eq. 3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionSpace {
    /// VF choices, ascending powers of two.
    pub vfs: Vec<u32>,
    /// IF choices, ascending powers of two.
    pub ifs: Vec<u32>,
}

impl ActionSpace {
    /// Builds the action space published by `target`.
    pub fn for_target(target: &TargetConfig) -> Self {
        Self {
            vfs: target.vf_candidates(),
            ifs: target.if_candidates(),
        }
    }

    /// Number of `(VF, IF)` combinations.
    pub fn len(&self) -> usize {
        self.vfs.len() * self.ifs.len()
    }

    /// True when the space is empty (degenerate targets only).
    pub fn is_empty(&self) -> bool {
        self.vfs.is_empty() || self.ifs.is_empty()
    }

    /// Decision for a flat action index (row-major over VF then IF).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn decision(&self, index: usize) -> VectorDecision {
        assert!(index < self.len(), "action index out of range");
        let vf = self.vfs[index / self.ifs.len()];
        let if_ = self.ifs[index % self.ifs.len()];
        VectorDecision { vf, if_ }
    }

    /// Decision from a pair of per-dimension indices.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn decision_from_pair(&self, vf_idx: usize, if_idx: usize) -> VectorDecision {
        VectorDecision {
            vf: self.vfs[vf_idx],
            if_: self.ifs[if_idx],
        }
    }

    /// Flat index of a decision, if it belongs to the space.
    pub fn index_of(&self, d: VectorDecision) -> Option<usize> {
        let vi = self.vfs.iter().position(|&v| v == d.vf)?;
        let ii = self.ifs.iter().position(|&v| v == d.if_)?;
        Some(vi * self.ifs.len() + ii)
    }

    /// Iterates over every decision in the space.
    pub fn iter(&self) -> impl Iterator<Item = VectorDecision> + '_ {
        (0..self.len()).map(|i| self.decision(i))
    }
}

fn floor_pow2(x: u32) -> u32 {
    1 << (31 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rounds_to_pow2() {
        assert_eq!(VectorDecision::new(5, 3), VectorDecision { vf: 4, if_: 2 });
        assert_eq!(VectorDecision::new(0, 0), VectorDecision { vf: 1, if_: 1 });
        assert_eq!(
            VectorDecision::new(64, 16),
            VectorDecision { vf: 64, if_: 16 }
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(VectorDecision::new(8, 2).to_string(), "(VF=8, IF=2)");
    }

    #[test]
    fn action_space_size_and_roundtrip() {
        let t = TargetConfig::i7_8559u();
        let sp = ActionSpace::for_target(&t);
        assert_eq!(sp.len(), 7 * 5);
        for i in 0..sp.len() {
            let d = sp.decision(i);
            assert_eq!(sp.index_of(d), Some(i));
        }
    }

    #[test]
    fn decision_from_pair_matches_flat() {
        let t = TargetConfig::i7_8559u();
        let sp = ActionSpace::for_target(&t);
        let d1 = sp.decision_from_pair(3, 2);
        assert_eq!(d1, VectorDecision { vf: 8, if_: 4 });
        assert_eq!(sp.decision(3 * sp.ifs.len() + 2), d1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let t = TargetConfig::i7_8559u();
        ActionSpace::for_target(&t).decision(9999);
    }

    #[test]
    fn iter_covers_all() {
        let t = TargetConfig::i7_8559u();
        let sp = ActionSpace::for_target(&t);
        assert_eq!(sp.iter().count(), sp.len());
        assert!(sp.iter().any(|d| d.vf == 64 && d.if_ == 16));
    }

    #[test]
    fn elems_per_block() {
        assert_eq!(VectorDecision::new(16, 4).elems_per_block(), 64);
        assert_eq!(VectorDecision::scalar().elems_per_block(), 1);
    }
}
