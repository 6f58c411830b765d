//! The Fig. 14 configuration-selection heuristics for flexible (v4)
//! accelerators.

use axi4mlir_config::FlowStrategy;
use axi4mlir_support::diag::Diagnostic;

use crate::transfer::{matmul_transfers, TransferEstimate};

/// A chosen accelerator configuration for one problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileChoice {
    /// The dataflow strategy.
    pub flow: FlowStrategy,
    /// The `(tM, tN, tK)` tile.
    pub tile: (i64, i64, i64),
    /// Estimated traffic under this choice.
    pub estimate: TransferEstimate,
}

impl TileChoice {
    /// The Fig. 14 annotation format, e.g. `Cs 128 32 32`.
    pub fn label(&self) -> String {
        format!("{} {} {} {}", self.flow.short_name(), self.tile.0, self.tile.1, self.tile.2)
    }
}

/// The v4 base size a `(tM, tN, tK)` tile must be instantiated with:
/// `base` itself when it divides every tile edge (the common case),
/// otherwise the largest base that does. The v4 model rejects tiles that
/// are not multiples of its base, and the degenerate whole-dimension tiles
/// produced for problems smaller than `base` need the correction —
/// `AccelInstance::config` passes the result to `matmul_with_tile`,
/// not `base`.
pub fn instantiation_base(base: i64, tile: (i64, i64, i64)) -> i64 {
    let (tm, tn, tk) = tile;
    gcd(gcd(gcd(base, tm), tn), tk).max(1)
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Words of accelerator memory a `(tM, tN, tK)` MatMul tile occupies
/// (the A, B, and C tiles together) — the quantity compared against an
/// accelerator's capacity.
pub fn tile_words(tile: (i64, i64, i64)) -> u64 {
    (tile.0 * tile.2 + tile.2 * tile.1 + tile.0 * tile.1) as u64
}

/// The legal tile edges for one problem dimension: every multiple of
/// `base` that divides `dim`, ascending. When no multiple of `base`
/// divides `dim` (in particular when `dim < base`), the search would
/// silently come up empty; instead this degenerates to the whole
/// dimension as a single tile, so small or prime-sized problems still
/// have exactly one legal (if untiled) edge.
pub(crate) fn candidate_edges(dim: i64, base: i64) -> Vec<i64> {
    let edges: Vec<i64> = (1..=dim / base).map(|q| q * base).filter(|t| dim % t == 0).collect();
    if edges.is_empty() && dim > 0 {
        return vec![dim];
    }
    edges
}

/// The `As/Bs/Cs-squareTile` heuristics: the largest square tile
/// `T = tM = tN = tK` that is a multiple of `base` (or, for problems
/// smaller than `base`, the degenerate whole-dimension tile), divides
/// every problem dimension, and fits the accelerator memory
/// (`capacity_words`).
///
/// # Errors
///
/// Returns a [`Diagnostic`] naming the constraint when no square tile
/// divides every dimension within the capacity (previously a silent
/// `None`).
pub fn square_tile_choice(
    flow: FlowStrategy,
    problem: (i64, i64, i64),
    base: i64,
    capacity_words: u64,
) -> Result<TileChoice, Diagnostic> {
    let (m, n, k) = problem;
    let max_square = m.min(n).min(k);
    let mut best: Option<i64> = None;
    for t in candidate_edges(max_square, base) {
        if m % t == 0 && n % t == 0 && k % t == 0 && tile_words((t, t, t)) <= capacity_words {
            best = Some(t);
        }
    }
    let t = best.ok_or_else(|| {
        Diagnostic::error(format!(
            "no square tile (multiple of {base}, or the degenerate whole-dimension tile) divides \
             problem {m}x{n}x{k} within {capacity_words} words of accelerator memory"
        ))
    })?;
    Ok(TileChoice { flow, tile: (t, t, t), estimate: matmul_transfers(flow, problem, (t, t, t)) })
}

/// The `Best` heuristic: free search over flows and non-square tiles
/// (multiples of `base` dividing each dimension — degenerating to the
/// whole dimension when none exists — and fitting the accelerator
/// memory), minimizing total words moved with transaction count as the
/// tie-breaker.
///
/// # Errors
///
/// Returns a [`Diagnostic`] when no tile combination fits
/// `capacity_words` (previously a silent `None`).
pub fn best_choice(
    problem: (i64, i64, i64),
    base: i64,
    capacity_words: u64,
) -> Result<TileChoice, Diagnostic> {
    let (m, n, k) = problem;
    let mut best: Option<TileChoice> = None;
    for tm in candidate_edges(m, base) {
        for tn in candidate_edges(n, base) {
            for tk in candidate_edges(k, base) {
                let tile = (tm, tn, tk);
                if tile_words(tile) > capacity_words {
                    continue;
                }
                for flow in FlowStrategy::all() {
                    let estimate = matmul_transfers(flow, problem, tile);
                    let candidate = TileChoice { flow, tile, estimate };
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            (estimate.words_total(), estimate.transactions)
                                < (b.estimate.words_total(), b.estimate.transactions)
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }
        }
    }
    best.ok_or_else(|| {
        Diagnostic::error(format!(
            "no (tM, tN, tK) tile over multiples of {base} fits problem {m}x{n}x{k} within \
             {capacity_words} words of accelerator memory"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::V4_CAPACITY_WORDS;

    /// The six Fig. 14 problems: permutations of [32, 256, 512].
    fn fig14_problems() -> Vec<(i64, i64, i64)> {
        vec![
            (256, 32, 512),
            (256, 512, 32),
            (32, 256, 512),
            (32, 512, 256),
            (512, 256, 32),
            (512, 32, 256),
        ]
    }

    #[test]
    fn square_tile_tops_out_at_32() {
        // Paper: "T = 32 was selected for all square flows because it is
        // the biggest value so the tiles fit inside the accelerator's
        // internal memory" (and 32 is the smallest dimension).
        for p in fig14_problems() {
            for flow in [
                FlowStrategy::InputAStationary,
                FlowStrategy::InputBStationary,
                FlowStrategy::OutputStationary,
            ] {
                let c = square_tile_choice(flow, p, 16, V4_CAPACITY_WORDS).unwrap();
                assert_eq!(c.tile, (32, 32, 32), "{p:?} {flow}");
            }
        }
    }

    #[test]
    fn best_beats_every_square_heuristic() {
        for p in fig14_problems() {
            let best = best_choice(p, 16, V4_CAPACITY_WORDS).unwrap();
            for flow in FlowStrategy::all() {
                if let Ok(square) = square_tile_choice(flow, p, 16, V4_CAPACITY_WORDS) {
                    assert!(
                        best.estimate.words_total() <= square.estimate.words_total(),
                        "{p:?}: best {:?} vs {} square {:?}",
                        best,
                        flow,
                        square.estimate
                    );
                }
            }
        }
    }

    #[test]
    fn best_uses_non_square_tiles_on_skewed_problems() {
        let best = best_choice((256, 32, 512), 16, V4_CAPACITY_WORDS).unwrap();
        let (tm, tn, tk) = best.tile;
        assert!(!(tm == tn && tn == tk), "skewed problems should pick non-square tiles: {best:?}");
        // Tiles stay within the accelerator memory.
        assert!(tile_words(best.tile) <= V4_CAPACITY_WORDS);
    }

    #[test]
    fn best_respects_capacity() {
        // With a tiny capacity only small tiles remain.
        let best = best_choice((256, 256, 256), 16, 3 * 16 * 16).unwrap();
        assert_eq!(best.tile, (16, 16, 16));
    }

    #[test]
    fn small_problems_fall_back_to_the_whole_dimension() {
        // 8 < base 16: the search degenerates to the single 8x8x8 tile
        // instead of coming up empty.
        let square =
            square_tile_choice(FlowStrategy::OutputStationary, (8, 8, 8), 16, 10_000).unwrap();
        assert_eq!(square.tile, (8, 8, 8));
        let best = best_choice((8, 8, 8), 16, 10_000).unwrap();
        assert_eq!(best.tile, (8, 8, 8));
    }

    #[test]
    fn instantiation_base_handles_degenerate_tiles() {
        assert_eq!(instantiation_base(16, (32, 16, 48)), 16, "base kept when it divides");
        assert_eq!(instantiation_base(16, (8, 8, 8)), 8, "fallback tile needs smaller base");
        assert_eq!(instantiation_base(16, (10, 10, 10)), 2);
        assert_eq!(instantiation_base(16, (7, 7, 7)), 1);
    }

    #[test]
    fn candidate_edges_degenerate_fallback() {
        assert_eq!(candidate_edges(64, 16), vec![16, 32, 64]);
        // dim < base, and base does not divide dim: whole-dim fallback.
        assert_eq!(candidate_edges(8, 16), vec![8]);
        assert_eq!(candidate_edges(10, 4), vec![10], "no multiple of 4 divides 10");
        assert!(candidate_edges(0, 16).is_empty());
    }

    #[test]
    fn impossible_constraints_are_diagnostics() {
        // Capacity too small for even the degenerate tile.
        let err =
            square_tile_choice(FlowStrategy::OutputStationary, (8, 8, 8), 16, 10).unwrap_err();
        assert!(err.message.contains("8x8x8"), "{}", err.message);
        let err = best_choice((8, 8, 8), 16, 10).unwrap_err();
        assert!(err.message.contains("10 words"), "{}", err.message);
        // Non-uniform small dims: the square fallback does not divide every
        // dimension, so the square search reports why it failed.
        assert!(square_tile_choice(FlowStrategy::OutputStationary, (8, 12, 8), 16, 10_000).is_err());
    }

    #[test]
    fn label_format_matches_figure() {
        let c = TileChoice {
            flow: FlowStrategy::OutputStationary,
            tile: (128, 32, 32),
            estimate: TransferEstimate::default(),
        };
        assert_eq!(c.label(), "Cs 128 32 32");
    }

    #[test]
    fn choice_depends_on_problem_shape() {
        let p1 = best_choice((256, 32, 512), 16, V4_CAPACITY_WORDS).unwrap();
        let p2 = best_choice((32, 256, 512), 16, V4_CAPACITY_WORDS).unwrap();
        assert_ne!((p1.flow, p1.tile), (p2.flow, p2.tile));
    }
}
