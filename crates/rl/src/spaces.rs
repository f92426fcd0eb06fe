//! Action-space parameterizations (Figure 6 of the paper).

/// Sizes of the two discrete action dimensions: indices into the arrays of
/// possible VFs and IFs (§3.3 eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionDims {
    /// Number of VF choices (7 for `MAX_VF = 64`).
    pub n_vf: usize,
    /// Number of IF choices (5 for `MAX_IF = 16`).
    pub n_if: usize,
}

impl ActionDims {
    /// Total `(VF, IF)` combinations.
    pub fn total(&self) -> usize {
        self.n_vf * self.n_if
    }

    /// Flattens a pair of indices.
    pub fn flatten(&self, a: (usize, usize)) -> usize {
        a.0 * self.n_if + a.1
    }

    /// Unflattens an index produced by [`ActionDims::flatten`].
    pub fn unflatten(&self, idx: usize) -> (usize, usize) {
        (idx / self.n_if, idx % self.n_if)
    }

    /// Clamps-and-rounds one continuous coordinate onto the flat index
    /// space (the paper's continuous-1D decoding: "the numbers … are
    /// rounded to the closest integers").
    pub fn decode_1d(&self, x: f32) -> (usize, usize) {
        let idx = x.round().clamp(0.0, (self.total() - 1) as f32) as usize;
        self.unflatten(idx)
    }

    /// Clamps-and-rounds two continuous coordinates onto the index pair.
    pub fn decode_2d(&self, x: f32, y: f32) -> (usize, usize) {
        let v = x.round().clamp(0.0, (self.n_vf - 1) as f32) as usize;
        let i = y.round().clamp(0.0, (self.n_if - 1) as f32) as usize;
        (v, i)
    }
}

/// The three action-space definitions compared in §4 / Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionSpaceKind {
    /// Two categorical heads picking indices into the VF and IF arrays.
    /// "The results show that the discrete action space performs the
    /// best."
    Discrete,
    /// One Gaussian output encoding both factors jointly.
    Continuous1D,
    /// Two Gaussian outputs, one per factor.
    Continuous2D,
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: ActionDims = ActionDims { n_vf: 7, n_if: 5 };

    #[test]
    fn paper_action_space_has_35_combinations() {
        assert_eq!(DIMS.total(), 35);
    }

    #[test]
    fn flatten_roundtrip() {
        for v in 0..7 {
            for i in 0..5 {
                assert_eq!(DIMS.unflatten(DIMS.flatten((v, i))), (v, i));
            }
        }
    }

    #[test]
    fn decode_1d_clamps_and_rounds() {
        assert_eq!(DIMS.decode_1d(-3.0), (0, 0));
        assert_eq!(DIMS.decode_1d(0.4), (0, 0));
        assert_eq!(DIMS.decode_1d(7.6), (1, 3));
        assert_eq!(DIMS.decode_1d(34.2), (6, 4));
        assert_eq!(DIMS.decode_1d(99.0), (6, 4));
    }

    #[test]
    fn decode_2d_clamps_each_axis() {
        assert_eq!(DIMS.decode_2d(-1.0, 2.2), (0, 2));
        assert_eq!(DIMS.decode_2d(6.7, 9.0), (6, 4));
        assert_eq!(DIMS.decode_2d(3.4, 0.5), (3, 1));
    }
}
