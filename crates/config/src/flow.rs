//! Dataflow (stationarity) strategies, and the rule behind the one
//! loop-order decision (`AcceleratorConfig::loop_order`): a function of a
//! flow's structure, never of the name it is filed under.

use std::fmt;

/// The MatMul iteration space and operand table (Fig. 5 `dims`, `data`).
pub(crate) const MATMUL_DIMS: [&str; 3] = ["m", "n", "k"];
pub(crate) const MATMUL_DATA: [(&str, [&str; 2]); 3] =
    [("A", ["m", "k"]), ("B", ["k", "n"]), ("C", ["m", "n"])];

/// `dims` with those of `outer` first, in `outer`'s order: a transfer
/// hoisted out of the inner loops is addressed by the outer loops only.
pub(crate) fn outer_first<T: PartialEq + Clone>(dims: &[T], outer: &[T]) -> Vec<T> {
    let mut order = dims.to_vec();
    // Stable: the dims `outer` does not name keep configuration order.
    order.sort_by_key(|dim| outer.iter().position(|o| o == dim).unwrap_or(usize::MAX));
    order
}

/// Which operand stays resident in the accelerator across inner-loop
/// iterations — the paper's Ns / As / Bs / Cs strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowStrategy {
    /// Nothing stationary: all transfers in the innermost loop.
    NothingStationary,
    /// Input A stationary.
    InputAStationary,
    /// Input B stationary.
    InputBStationary,
    /// Output C stationary (accumulate in the accelerator).
    OutputStationary,
}

impl FlowStrategy {
    /// The figure label: `Ns`, `As`, `Bs`, or `Cs`.
    pub fn short_name(self) -> &'static str {
        match self {
            FlowStrategy::NothingStationary => "Ns",
            FlowStrategy::InputAStationary => "As",
            FlowStrategy::InputBStationary => "Bs",
            FlowStrategy::OutputStationary => "Cs",
        }
    }

    /// All strategies in figure order.
    pub fn all() -> [FlowStrategy; 4] {
        [
            FlowStrategy::NothingStationary,
            FlowStrategy::InputAStationary,
            FlowStrategy::InputBStationary,
            FlowStrategy::OutputStationary,
        ]
    }

    /// Parses a figure label.
    pub fn from_short_name(name: &str) -> Option<FlowStrategy> {
        Self::all().into_iter().find(|s| s.short_name() == name)
    }

    /// The MatMul loop permutation that makes this strategy legal —
    /// `loop_order` of a flow hoisting the stationary operand's transfer:
    /// its dimensions must not be iterated by the innermost loop(s).
    ///
    /// Returns dimension names outermost-first over `(m, n, k)`.
    pub fn matmul_permutation(self) -> [&'static str; 3] {
        let stationary: &[&str] = match self {
            FlowStrategy::NothingStationary => &[],
            FlowStrategy::InputAStationary => &MATMUL_DATA[0].1,
            FlowStrategy::InputBStationary => &MATMUL_DATA[1].1,
            FlowStrategy::OutputStationary => &MATMUL_DATA[2].1,
        };
        outer_first(&MATMUL_DIMS, stationary).try_into().expect("a reordering of (m, n, k)")
    }
}

impl fmt::Display for FlowStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for s in FlowStrategy::all() {
            assert_eq!(FlowStrategy::from_short_name(s.short_name()), Some(s));
        }
        assert_eq!(FlowStrategy::from_short_name("Xs"), None);
        assert_eq!(FlowStrategy::OutputStationary.to_string(), "Cs");
    }

    #[test]
    fn permutations_keep_stationary_dims_out_of_innermost() {
        // As: innermost must not index m or k.
        assert_eq!(FlowStrategy::InputAStationary.matmul_permutation()[2], "n");
        // Bs: innermost must not index k or n.
        assert_eq!(FlowStrategy::InputBStationary.matmul_permutation()[2], "m");
        // Cs: innermost must not index m or n.
        assert_eq!(FlowStrategy::OutputStationary.matmul_permutation()[2], "k");
    }
}
