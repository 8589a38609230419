//! The grouped engine: an index-level bit-for-bit mirror of the exact
//! engine, driven entirely by the dataset's shared [`GroupedSnapshot`]
//! runs.
//!
//! ## What "grouped" means after the unification
//!
//! Historically this engine sampled *aggregate counts* — per-group
//! binomial candidates, multivariate-hypergeometric acceptance — which
//! was distribution-equivalent to the exact traversal but only
//! comparable to it statistically, and structurally unable to say
//! *which* items were selected. It now works at the index level, on the
//! same lazily shuffled traversal as the exact engine, with one
//! difference: **it never touches the raw score slice**. Every examined
//! item's score is resolved through the shared grouped runs
//! (`position → group → score`, `O(log G)`), and every `c`-dependent
//! quantity (threshold, top membership, top sum) comes from the shared
//! rank table.
//!
//! ## Why the index streams are bit-identical
//!
//! Viewed through the groups, one traversal step is a *member-weighted
//! group draw plus a uniform member expansion*: drawing a uniform
//! remaining slot of the implicit permutation ([`SparseOrder`]) picks
//! score-group `g` with probability `remaining_g / remaining_total`,
//! and the generation-stamped displacement-map swap inside it resolves
//! which concrete member of `g` that slot currently holds — the same
//! sparse swap machinery (and the same map type) the grouped EM sampler
//! [`EmTopC::select_grouped_into`] uses for its within-group expansion.
//! Both engines run this identical protocol (svt-core's
//! [`ScoreSource`]-generic streaming paths), and a score group stores
//! the `==`-equal value of every member's raw score, so each
//! comparison `q + ν ≥ T + ρ` branches identically under either score
//! resolution. Same draws, same branches ⇒ the grouped engine emits
//! **the identical index stream** as the exact engine for the same
//! `(cell seed, run index)` — for SVT-S, SVT-ReTr, SVT-DPBook (whose
//! per-⊤ threshold refresh forced the old aggregate engine to refuse
//! it; an index-level traversal handles it naturally) and EM (both
//! engines call the same grouped order-statistics sampler).
//!
//! That bit-comparability is the point: the two engines derive each
//! examined item's score through independent data paths (raw slice vs
//! sort-derived runs + inverse rank table), so a single differing
//! selection anywhere in a sweep now fails the equivalence tests
//! loudly, instead of hiding inside statistical tolerance.
//!
//! [`SparseOrder`]: svt_core::SparseOrder
//! [`ScoreSource`]: svt_core::ScoreSource
//! [`EmTopC::select_grouped_into`]: svt_core::em_select::EmTopC::select_grouped_into

use crate::simulate::{run_streaming, RunOutcome, SweepContext};
use crate::spec::AlgorithmSpec;
use dp_data::{GroupedSnapshot, RankCut};
use dp_mechanisms::DpRng;
use svt_core::streaming::RunScratch;
use svt_core::Result;

/// Precomputed per-`(dataset, c)` state for the grouped engine: a
/// borrow of the sweep-shared grouped runs plus the `O(log G)`-resolved
/// cutoff. Construction performs no sort and no `O(n)` pass.
#[derive(Debug, Clone)]
pub struct GroupedContext<'a> {
    sweep: &'a SweepContext,
    cut: RankCut,
    c: usize,
}

impl<'a> GroupedContext<'a> {
    /// Builds the context against the dataset's shared sweep state.
    pub fn new(sweep: &'a SweepContext, c: usize) -> Self {
        Self {
            cut: sweep.cut(c),
            sweep,
            c,
        }
    }

    /// The §6 threshold this context uses (bit-identical to the exact
    /// engine's — both read the shared rank table).
    pub fn threshold(&self) -> f64 {
        self.cut.threshold
    }

    /// Sum of the true top-`c` scores.
    pub fn top_sum(&self) -> f64 {
        self.cut.top_sum
    }

    /// The shared grouped score runs this engine reads from.
    pub fn groups(&self) -> &GroupedSnapshot {
        self.sweep.groups()
    }

    /// Executes one run of `alg` and returns its metrics; the selected
    /// index stream is left in [`RunScratch::selected`], bit-identical
    /// to what the exact engine emits from the same generator state.
    ///
    /// # Errors
    /// Propagates configuration validation from the algorithm wrappers.
    pub fn run_once_into(
        &self,
        alg: &AlgorithmSpec,
        epsilon: f64,
        rng: &mut DpRng,
        scratch: &mut RunScratch,
    ) -> Result<RunOutcome> {
        run_streaming(
            self.sweep.groups(),
            self.sweep,
            &self.cut,
            self.c,
            alg,
            epsilon,
            rng,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::exact::ExactContext;
    use dp_data::ScoreVector;
    use svt_core::allocation::BudgetRatio;

    fn toy_scores() -> ScoreVector {
        let mut v = vec![];
        for i in 0..60u32 {
            v.push(match i {
                0..=4 => 1000.0,
                5..=14 => 200.0,
                _ => 10.0,
            });
        }
        ScoreVector::new(v).unwrap()
    }

    fn all_algorithms() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::DpBook,
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToOne,
            },
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            AlgorithmSpec::Retraversal {
                ratio: BudgetRatio::OneToCTwoThirds,
                increment_d: 2.0,
            },
            AlgorithmSpec::Em,
            AlgorithmSpec::Revisited {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            AlgorithmSpec::ExpNoise {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
        ]
    }

    #[test]
    fn context_resolves_cutoff_from_the_shared_rank_table() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = GroupedContext::new(&sweep, 8);
        // top_sum = 5·1000 + 3·200.
        assert!((ctx.top_sum() - 5600.0).abs() < 1e-9);
        // threshold: 8th and 9th highest are both 200.
        assert!((ctx.threshold() - 200.0).abs() < 1e-9);
        // Straddling cut: 5th highest = 1000, 6th = 200 → 600.
        let ctx = GroupedContext::new(&sweep, 5);
        assert!((ctx.threshold() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn every_algorithm_is_bit_identical_to_the_exact_engine() {
        // The tentpole contract, pinned at the context level: for every
        // algorithm — including SVT-DPBook, which the old aggregate
        // engine had to refuse — the grouped mirror emits the identical
        // index stream and identical metrics from the same generator
        // state, run after run on a shared scratch.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        for c in [1usize, 5, 8, 30, 60] {
            let exact = ExactContext::new(&scores, &sweep, c);
            let grouped = GroupedContext::new(&sweep, c);
            for alg in &all_algorithms() {
                let mut rng_e = DpRng::seed_from_u64(4051 + c as u64);
                let mut rng_g = DpRng::seed_from_u64(4051 + c as u64);
                let mut scratch_e = RunScratch::new();
                let mut scratch_g = RunScratch::new();
                for run in 0..25 {
                    let e = exact
                        .run_once_into(alg, 0.3, &mut rng_e, &mut scratch_e)
                        .unwrap();
                    let g = grouped
                        .run_once_into(alg, 0.3, &mut rng_g, &mut scratch_g)
                        .unwrap();
                    assert_eq!(
                        scratch_e.selected(),
                        scratch_g.selected(),
                        "{alg:?} c={c} run={run}: index streams diverged"
                    );
                    assert_eq!(e, g, "{alg:?} c={c} run={run}: outcomes diverged");
                }
                // Identical randomness consumed throughout: lockstep.
                assert_eq!(rng_e.next_u64(), rng_g.next_u64(), "{alg:?} c={c}");
            }
        }
    }

    #[test]
    fn dpbook_is_now_supported() {
        // The per-⊤ threshold refresh only broke aggregate count
        // sampling; the index-level mirror traverses items one at a
        // time and handles it like any other variant.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = GroupedContext::new(&sweep, 5);
        let mut rng = DpRng::seed_from_u64(709);
        let mut scratch = RunScratch::new();
        let out = ctx
            .run_once_into(&AlgorithmSpec::DpBook, 0.1, &mut rng, &mut scratch)
            .unwrap();
        assert!((0.0..=1.0).contains(&out.ser));
        assert!((0.0..=1.0).contains(&out.fnr));
    }

    #[test]
    fn generous_budget_gives_zero_error() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = GroupedContext::new(&sweep, 5);
        let mut rng = DpRng::seed_from_u64(719);
        let mut scratch = RunScratch::new();
        for alg in [
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToOne,
            },
            AlgorithmSpec::Em,
        ] {
            let out = ctx
                .run_once_into(&alg, 500.0, &mut rng, &mut scratch)
                .unwrap();
            assert_eq!(out.fnr, 0.0, "{alg:?}");
            assert_eq!(out.ser, 0.0, "{alg:?}");
        }
    }

    #[test]
    fn metrics_stay_in_unit_interval_at_tiny_budget() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = GroupedContext::new(&sweep, 10);
        let mut rng = DpRng::seed_from_u64(727);
        let mut scratch = RunScratch::new();
        for alg in all_algorithms() {
            for _ in 0..20 {
                let out = ctx
                    .run_once_into(&alg, 0.01, &mut rng, &mut scratch)
                    .unwrap();
                assert!((0.0..=1.0).contains(&out.fnr));
                assert!((0.0..=1.0).contains(&out.ser));
            }
        }
    }

    #[test]
    fn c_beyond_population_is_clamped() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = GroupedContext::new(&sweep, 1000);
        let mut rng = DpRng::seed_from_u64(733);
        let mut scratch = RunScratch::new();
        let out = ctx
            .run_once_into(&AlgorithmSpec::Em, 500.0, &mut rng, &mut scratch)
            .unwrap();
        assert_eq!(scratch.selected().len(), 60);
        assert_eq!(out.fnr, 0.0);
    }

    #[test]
    fn scratch_reuse_across_algorithms_is_clean() {
        // The sweep-runner pattern: one scratch, alternating algorithms
        // and engines, must not leak state between runs.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = GroupedContext::new(&sweep, 8);
        let fresh = |alg: &AlgorithmSpec, seed: u64| {
            let mut rng = DpRng::seed_from_u64(seed);
            let mut scratch = RunScratch::new();
            ctx.run_once_into(alg, 0.4, &mut rng, &mut scratch).unwrap();
            scratch.selected().to_vec()
        };
        let mut shared = RunScratch::new();
        for seed in [11u64, 13, 17] {
            for alg in all_algorithms() {
                let mut rng = DpRng::seed_from_u64(seed);
                ctx.run_once_into(&alg, 0.4, &mut rng, &mut shared).unwrap();
                assert_eq!(
                    shared.selected(),
                    &fresh(&alg, seed)[..],
                    "{alg:?} seed={seed}"
                );
            }
        }
    }
}
