//! The faithful per-query engine: shuffle, stream, compare — exactly
//! the paper's protocol, built directly on `svt-core`'s streaming
//! algorithms.
//!
//! The engine reads each examined item's score straight off the raw
//! slice; everything `c`-dependent (threshold, effective size, top-`c`,
//! metric scoring) comes from the dataset's shared [`SweepContext`]
//! rank table, so constructing a context for a new `(algorithm, c)`
//! cell costs `O(log G + c)` — no private sort, no `O(n)` pass, no
//! per-context lazy-grouping cells.

use crate::simulate::{retraversal_config, run_streaming, RunOutcome, SweepContext};
use crate::spec::AlgorithmSpec;
use dp_data::{RankCut, ScoreVector};
use dp_mechanisms::DpRng;
use svt_core::alg::{ExpNoiseSvt, SvtRevisited};
use svt_core::em_select::EmTopC;
use svt_core::noninteractive::{dpbook_select, select_with, svt_select, SvtSelectConfig};
use svt_core::retraversal::svt_retraversal;
use svt_core::streaming::RunScratch;
use svt_core::Result;

/// Precomputed per-`(dataset, c)` state for the exact engine.
///
/// Borrows the dataset's scores and its sweep-shared [`SweepContext`]
/// instead of cloning or re-deriving anything — building a context for
/// a new `(algorithm, c)` cell over AOL's 2,290,685 items resolves the
/// cutoff against the shared rank table (`O(log G)`) and copies the
/// `c`-long top prefix, so one prepared dataset serves every cell of a
/// sweep with exactly one score sort among them.
#[derive(Debug, Clone)]
pub struct ExactContext<'a> {
    scores: &'a [f64],
    sweep: &'a SweepContext,
    cut: RankCut,
    true_top: Vec<usize>,
    c: usize,
}

impl<'a> ExactContext<'a> {
    /// Builds the context: cutoff resolution and the §6 threshold come
    /// from `sweep`'s shared rank table (the average of the `c`-th and
    /// `(c+1)`-th highest scores), the exact top-`c` from its shared
    /// sorted order.
    pub fn new(scores: &'a ScoreVector, sweep: &'a SweepContext, c: usize) -> Self {
        debug_assert_eq!(scores.len(), sweep.len_items(), "context/dataset mismatch");
        Self {
            scores: scores.as_slice(),
            cut: sweep.cut(c),
            true_top: sweep.true_top(c).iter().map(|&i| i as usize).collect(),
            sweep,
            c,
        }
    }

    /// The threshold in force.
    pub fn threshold(&self) -> f64 {
        self.cut.threshold
    }

    /// The exact top-`c` indices (decreasing score, ties by smaller
    /// index — a copy of the shared order's prefix).
    pub fn true_top(&self) -> &[usize] {
        &self.true_top
    }

    fn outcome(&self, selected: &[usize]) -> RunOutcome {
        self.sweep.outcome(&self.cut, selected)
    }

    /// Executes one run of `alg` through the scalar reference path
    /// (fresh allocations, eager full shuffle, per-draw noise) and
    /// returns its metrics.
    ///
    /// Kept as the baseline the batched pipeline is benchmarked and
    /// distribution-tested against; the sweep runner uses
    /// [`run_once_into`](Self::run_once_into).
    ///
    /// # Errors
    /// Propagates configuration validation from the algorithm wrappers.
    pub fn run_once(
        &self,
        alg: &AlgorithmSpec,
        epsilon: f64,
        rng: &mut DpRng,
    ) -> Result<RunOutcome> {
        let threshold = self.cut.threshold;
        let selected = match alg {
            AlgorithmSpec::DpBook => {
                dpbook_select(self.scores, threshold, epsilon, self.c, 1.0, rng)?
            }
            AlgorithmSpec::Standard { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio);
                svt_select(self.scores, threshold, &cfg, rng)?
            }
            AlgorithmSpec::Retraversal { ratio, increment_d } => {
                let cfg = retraversal_config(epsilon, self.c, *ratio, *increment_d);
                svt_retraversal(self.scores, threshold, &cfg, rng)?.selected
            }
            AlgorithmSpec::Em => {
                EmTopC::new(epsilon, self.c, 1.0, true)?.select(self.scores, rng)?
            }
            AlgorithmSpec::Revisited { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio).to_standard()?;
                let mut alg = SvtRevisited::new(cfg, rng)?;
                select_with(&mut alg, self.scores, threshold, rng)?
            }
            AlgorithmSpec::ExpNoise { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio).to_standard()?;
                let mut alg = ExpNoiseSvt::new(cfg, rng)?;
                select_with(&mut alg, self.scores, threshold, rng)?
            }
        };
        Ok(self.outcome(&selected))
    }

    /// Executes one run of `alg` through the zero-copy streaming path:
    /// sparse lazy Fisher–Yates up to the abort point, reusable
    /// `scratch` buffers, and block-batched noise — Laplace for the SVT
    /// variants, lazy per-group Gumbel order statistics
    /// ([`EmTopC::select_grouped_into`] over the sweep-shared grouped
    /// runs) for EM, so no path ever pays one draw per item.
    ///
    /// Samples the same output distribution as [`run_once`](Self::run_once);
    /// the SVT outputs are bit-identical for every noise batch size.
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
            self.scores,
            self.sweep,
            &self.cut,
            self.c,
            alg,
            epsilon,
            rng,
            scratch,
        )
    }

    /// Executes one EM run through the per-item-key sampler
    /// ([`EmTopC::select_into`]: one scratch-buffered Gumbel key per
    /// item, `O(n log c)`).
    ///
    /// Kept as the reference the grouped-exact EM path is
    /// distribution-tested and benchmarked against (`em_batched` in
    /// `bench_smoke`); [`run_once_into`](Self::run_once_into) routes EM
    /// to the grouped sampler instead.
    ///
    /// # Errors
    /// Propagates configuration validation from [`EmTopC`].
    pub fn run_once_em_ungrouped(
        &self,
        epsilon: f64,
        rng: &mut DpRng,
        scratch: &mut RunScratch,
    ) -> Result<RunOutcome> {
        EmTopC::new(epsilon, self.c, 1.0, true)?.select_into(self.scores, rng, scratch)?;
        Ok(self.outcome(scratch.selected()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_core::allocation::BudgetRatio;

    fn toy_scores() -> ScoreVector {
        // 40 items: 5 clear winners, a middle band, and a tail.
        let mut v = vec![];
        for i in 0..40u32 {
            v.push(match i {
                0..=4 => 1000.0 - i as f64,
                5..=14 => 200.0 - i as f64,
                _ => 10.0,
            });
        }
        ScoreVector::new(v).unwrap()
    }

    #[test]
    fn context_precomputes_paper_threshold() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        // 5th highest = 996, 6th = 195 → threshold 595.5.
        assert!((ctx.threshold() - 595.5).abs() < 1e-9);
        assert_eq!(ctx.true_top(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn streaming_path_matches_scalar_path_in_distribution() {
        // `run_once_into` is a lazier sampler of the same distribution
        // as `run_once`: mean SER over many runs must agree.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let algs = [
            AlgorithmSpec::DpBook,
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
        ];
        let runs = 400;
        let mut scratch = svt_core::streaming::RunScratch::new();
        for alg in &algs {
            let mut rng_a = DpRng::seed_from_u64(12345);
            let mut rng_b = DpRng::seed_from_u64(54321);
            let (mut new_ser, mut old_ser) = (0.0, 0.0);
            for _ in 0..runs {
                new_ser += ctx
                    .run_once_into(alg, 0.5, &mut rng_a, &mut scratch)
                    .unwrap()
                    .ser;
                old_ser += ctx.run_once(alg, 0.5, &mut rng_b).unwrap().ser;
            }
            let diff = (new_ser - old_ser).abs() / runs as f64;
            assert!(diff < 0.06, "{alg:?}: mean SER differs by {diff}");
        }
    }

    #[test]
    fn streaming_path_is_noise_batch_size_invariant() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let alg = AlgorithmSpec::Standard {
            ratio: BudgetRatio::OneToCTwoThirds,
        };
        let reference: Vec<RunOutcome> = {
            let mut rng = DpRng::seed_from_u64(777);
            let mut scratch = svt_core::streaming::RunScratch::with_noise_batch(1);
            (0..50)
                .map(|_| {
                    ctx.run_once_into(&alg, 0.5, &mut rng, &mut scratch)
                        .unwrap()
                })
                .collect()
        };
        for batch in [4usize, 256, 2048] {
            let mut rng = DpRng::seed_from_u64(777);
            let mut scratch = svt_core::streaming::RunScratch::with_noise_batch(batch);
            let got: Vec<RunOutcome> = (0..50)
                .map(|_| {
                    ctx.run_once_into(&alg, 0.5, &mut rng, &mut scratch)
                        .unwrap()
                })
                .collect();
            assert_eq!(got, reference, "batch {batch}");
        }
    }

    #[test]
    fn em_grouped_exact_path_matches_per_item_path_distribution() {
        // The default EM route (lazy per-group order statistics) and
        // the per-item-key reference sample the same distribution: mean
        // SER and FNR over many runs must agree.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let runs = 3000;
        let mut scratch = RunScratch::new();
        let mut rng_a = DpRng::seed_from_u64(881);
        let mut rng_b = DpRng::seed_from_u64(883);
        let (mut gs, mut gf, mut us, mut uf) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..runs {
            let g = ctx
                .run_once_into(&AlgorithmSpec::Em, 0.5, &mut rng_a, &mut scratch)
                .unwrap();
            gs += g.ser;
            gf += g.fnr;
            let u = ctx
                .run_once_em_ungrouped(0.5, &mut rng_b, &mut scratch)
                .unwrap();
            us += u.ser;
            uf += u.fnr;
        }
        let n = runs as f64;
        assert!(
            (gs / n - us / n).abs() < 0.02,
            "SER grouped {} vs per-item {}",
            gs / n,
            us / n
        );
        assert!(
            (gf / n - uf / n).abs() < 0.02,
            "FNR grouped {} vs per-item {}",
            gf / n,
            uf / n
        );
    }

    #[test]
    fn all_algorithms_produce_metrics_in_range() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let mut rng = DpRng::seed_from_u64(683);
        let algs = [
            AlgorithmSpec::DpBook,
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
        ];
        for alg in &algs {
            for _ in 0..5 {
                let out = ctx.run_once(alg, 0.5, &mut rng).unwrap();
                assert!((0.0..=1.0).contains(&out.fnr), "{alg:?} fnr {}", out.fnr);
                assert!((0.0..=1.0).contains(&out.ser), "{alg:?} ser {}", out.ser);
            }
        }
    }

    #[test]
    fn generous_budget_drives_errors_to_zero() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let mut rng = DpRng::seed_from_u64(691);
        for alg in [
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToOne,
            },
            AlgorithmSpec::Em,
        ] {
            let out = ctx.run_once(&alg, 500.0, &mut rng).unwrap();
            assert_eq!(out.fnr, 0.0, "{alg:?}");
            assert_eq!(out.ser, 0.0, "{alg:?}");
        }
    }

    #[test]
    fn tiny_budget_gives_large_errors_for_svt() {
        // ε = 0.001 at c = 5 on 40 items: noise scale swamps the score
        // separation; on average SER should be substantial.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let mut rng = DpRng::seed_from_u64(701);
        let alg = AlgorithmSpec::Standard {
            ratio: BudgetRatio::OneToOne,
        };
        let mean_ser: f64 = (0..200)
            .map(|_| ctx.run_once(&alg, 0.001, &mut rng).unwrap().ser)
            .sum::<f64>()
            / 200.0;
        assert!(mean_ser > 0.3, "mean SER {mean_ser}");
    }
}
