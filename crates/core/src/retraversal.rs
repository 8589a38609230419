//! §5 — SVT with retraversal (`SVT-ReTr`).
//!
//! The threshold dilemma: set `T` high and a pass may end with fewer
//! than `c` selections, "wasting" the unreached share of the budget; set
//! it low and the `c` slots fill before good late queries are reached.
//! In the non-interactive setting the paper proposes: raise the
//! threshold, and when a full pass selects fewer than `c` queries,
//! *retraverse* the not-yet-selected queries (fresh query noise, same
//! noisy threshold) until `c` are selected.
//!
//! Privacy is unchanged — the run still produces at most `c` positive
//! answers and every negative answer remains free, with `ρ` drawn once
//! (Theorem 4 applies verbatim; re-examining a query is just another
//! query with the same answer).
//!
//! The experiments raise `T` by `1D…5D` where "1D means adding one
//! standard deviation of the added noises" — `D = √2 · (query-noise
//! scale)`. [`IncrementUnit`] also exposes the raw scale for ablation.
//!
//! ## Two implementations
//!
//! [`svt_retraversal`] is the literal algorithm — one Laplace `ν` per
//! examined item in every pass — and serves as the test oracle.
//! [`svt_retraversal_from`] (and [`svt_retraversal_into`]), which both
//! experiment engines run, samples the same output law faster: pass 1
//! is the streaming SVT-S traversal, and every later pass is resolved
//! in closed form. With `ρ` fixed, a survivor of pass 1 crosses in each
//! later pass independently with one probability
//! `π = P[Lap(b) ≥ T + ρ − q]`, so the pass of its first crossing is
//! `2 + Geom(π)`; the re-pass loop's selection is the `c − k` smallest
//! `(first-crossing pass, survivor position)` pairs.
//!
//! ## Draw protocol of [`svt_retraversal_from`]
//!
//! 1. fork the query-noise generator off the run generator `rng`;
//! 2. draw `ρ` from `rng`;
//! 3. pass 1: per examined position, one lazy shuffle step from `rng`
//!    (stepped in lookahead windows) and one `ν` from the fork
//!    (block-pulled); ⊥ items are compacted in place as survivors;
//! 4. only if pass 1 ends with `k < c` selections, survivors remain and
//!    `max_passes ≥ 2`: fork a pass generator off `rng` and draw one
//!    open uniform per survivor from it, in survivor order, each fixing
//!    that survivor's first-crossing pass.
//!
//! A run that halts in pass 1 (or has `max_passes == 1`) is therefore
//! draw-for-draw a literal per-item traversal, and its selection is
//! pinned bit for bit by recorded values. A run that needs later
//! passes matches the literal algorithm in distribution, not bit for
//! bit. Either way the output is a pure function of the generator
//! state, the same for a score slice and its grouped snapshot, and the
//! same for every noise batch size.

use crate::alg::{SparseVector, StandardSvt};
use crate::noninteractive::SvtSelectConfig;
use crate::streaming::{BatchedSvt, RunScratch, ScoreSource};
use crate::{Result, SvtError};
use dp_mechanisms::{fastmath, DpRng};
use std::collections::BinaryHeap;

/// What "one D" of threshold increment means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementUnit {
    /// One standard deviation of the query noise, `√2 · scale` — the
    /// paper's definition.
    NoiseStdDev,
    /// One Laplace scale parameter (ablation alternative).
    NoiseScale,
}

/// Configuration for SVT-ReTr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetraversalConfig {
    /// The underlying SVT-S configuration (budget, cutoff, ratio…).
    pub select: SvtSelectConfig,
    /// How many units to add to the base threshold (the paper sweeps
    /// 1–5).
    pub increment: f64,
    /// The unit of increment.
    pub unit: IncrementUnit,
    /// Safety cap on full passes over the remaining queries; the paper
    /// loops "until c queries are selected", which terminates with
    /// probability 1 but not in bounded time. 64 passes is far beyond
    /// anything the paper's configurations need.
    pub max_passes: usize,
}

impl RetraversalConfig {
    /// The paper's configuration: counting queries, `1:c^{2/3}`
    /// allocation, increment of `k` noise standard deviations.
    pub fn paper(epsilon: f64, c: usize, k: f64) -> Self {
        Self {
            select: SvtSelectConfig::counting(
                epsilon,
                c,
                crate::allocation::BudgetRatio::OneToCTwoThirds,
            ),
            increment: k,
            unit: IncrementUnit::NoiseStdDev,
            max_passes: 64,
        }
    }

    /// The absolute threshold increase this configuration implies.
    ///
    /// # Errors
    /// Propagates ratio/budget validation.
    pub fn threshold_increase(&self) -> Result<f64> {
        let std = self.select.to_standard()?;
        let scale = std.query_noise_scale();
        let unit = match self.unit {
            IncrementUnit::NoiseStdDev => std::f64::consts::SQRT_2 * scale,
            IncrementUnit::NoiseScale => scale,
        };
        Ok(self.increment * unit)
    }
}

/// Result of one SVT-ReTr invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetraversalOutcome {
    /// Selected indices, in selection order (≤ `c`).
    pub selected: Vec<usize>,
    /// Number of passes performed (1 = no retraversal needed).
    pub passes: usize,
    /// The raised threshold actually used.
    pub threshold_used: f64,
}

/// Runs SVT-ReTr over `scores` with base threshold `base_threshold`.
///
/// # Errors
/// Propagates configuration validation.
pub fn svt_retraversal(
    scores: &[f64],
    base_threshold: f64,
    config: &RetraversalConfig,
    rng: &mut DpRng,
) -> Result<RetraversalOutcome> {
    if config.max_passes == 0 {
        return Err(SvtError::Mechanism(
            dp_mechanisms::MechanismError::InvalidParameter("max_passes must be >= 1"),
        ));
    }
    let threshold = base_threshold + config.threshold_increase()?;
    let mut alg = StandardSvt::new(config.select.to_standard()?, rng)?;
    let c = config.select.c;

    // Pass 1 runs over a fresh shuffle of everything; later passes
    // re-examine the not-yet-selected queries in the same relative
    // order (fresh ν each time, same ρ — the privacy argument needs ρ
    // fixed, and it is: `alg` lives across passes).
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    rng.shuffle(&mut order);

    let mut selected = Vec::with_capacity(c);
    let mut passes = 0;
    while selected.len() < c && passes < config.max_passes && !alg.is_halted() {
        passes += 1;
        let mut survivors = Vec::with_capacity(order.len());
        for &item in &order {
            if alg.is_halted() {
                break;
            }
            let answer = alg.respond(scores[item as usize], threshold, rng)?;
            if answer.is_positive() {
                selected.push(item as usize);
            } else {
                survivors.push(item);
            }
        }
        order = survivors;
        if order.is_empty() {
            break;
        }
    }
    Ok(RetraversalOutcome {
        selected,
        passes,
        threshold_used: threshold,
    })
}

/// Pass/threshold bookkeeping from one [`svt_retraversal_into`] run; the
/// selection itself lands in the caller's [`RunScratch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetraversalRun {
    /// Number of passes performed (1 = no retraversal needed).
    pub passes: usize,
    /// The raised threshold actually used.
    pub threshold_used: f64,
}

/// Streaming SVT-ReTr: the zero-allocation sampler of
/// [`svt_retraversal`]'s output law. Same output distribution and pass
/// semantics (lazy shuffle on the first pass, survivors re-examined in
/// the same relative order with the same `ρ`), but the permutation,
/// noise prefetch and resolver heap live in `scratch`, survivors are
/// compacted in place, and the later passes are drawn in closed form
/// (see the module docs), so a run allocates nothing and costs at most
/// one pass plus one sweep over the survivors.
///
/// # Errors
/// Propagates configuration validation; rejects `max_passes == 0`.
pub fn svt_retraversal_into(
    scores: &[f64],
    base_threshold: f64,
    config: &RetraversalConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<RetraversalRun> {
    svt_retraversal_from(scores, base_threshold, config, rng, scratch)
}

/// [`svt_retraversal_into`] generalized over any
/// [`ScoreSource`] — the one implementation both engines of the
/// experiment harness run. Two sources reporting `==`-equal scores per
/// item (a raw slice and its grouped runs) consume identical draws and
/// emit bit-identical selections and pass counts from the same
/// generator state.
///
/// Pass 1 runs on the lookahead window pipeline of
/// [`svt_select_from`](crate::streaming::svt_select_from), compacting
/// the ⊥ items in place. Every later pass is resolved in one sweep
/// over those survivors, one geometric draw each (see the module docs
/// for the draw protocol).
///
/// # Errors
/// Propagates configuration validation; rejects `max_passes == 0`.
pub fn svt_retraversal_from<S: ScoreSource + ?Sized>(
    scores: &S,
    base_threshold: f64,
    config: &RetraversalConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<RetraversalRun> {
    if config.max_passes == 0 {
        return Err(SvtError::Mechanism(
            dp_mechanisms::MechanismError::InvalidParameter("max_passes must be >= 1"),
        ));
    }
    let threshold = base_threshold + config.threshold_increase()?;
    let mut svt = BatchedSvt::new(&config.select.to_standard()?, rng)?;
    let c = config.select.c;
    scratch.begin_run(scores.len());
    let survivors = scratch.window_pass::<S, _, true>(scores, threshold, &mut svt, rng)?;
    let found = scratch.selected_len();
    let passes = if scores.is_empty() {
        0
    } else if found >= c || survivors == 0 || config.max_passes == 1 {
        1
    } else {
        let mut pass_rng = rng.fork();
        let later = LaterPasses {
            crossing: threshold + svt.rho(),
            noise_scale: svt.query_noise().scale(),
            need: c - found,
            max_passes: config.max_passes,
        };
        later.resolve(scores, survivors, &mut pass_rng, scratch)
    };
    Ok(RetraversalRun {
        passes,
        threshold_used: threshold,
    })
}

/// Survivors handled per block of the later-pass sweep: their score
/// reads issue together, and their uniforms and logs are filled in one
/// call each.
const RESOLVE_BLOCK: usize = 64;

/// Safety margin of the resolver's cheap rejection test, far above the
/// error of the batched `ln` it reads (about `1e-12` relative).
const REJECT_MARGIN: f64 = 1e-9;

/// Passes 2, 3, … of one SVT-ReTr run, after pass 1 selected fewer
/// than `c` items.
///
/// `ρ` is fixed for the whole run, so in every later pass survivor `i`
/// crosses independently with the same probability
/// `πᵢ = P[Lap(b) ≥ T + ρ − qᵢ]`, and the pass of its first crossing
/// is `2 + Geom(πᵢ)` (failures before the first success). The re-pass
/// loop examines survivors in `(pass, position)` order and halts at the
/// `need`-th crossing, so its selection is exactly the `need` smallest
/// `(first-crossing pass, position)` pairs with pass `≤ max_passes`.
struct LaterPasses {
    /// `T + ρ`: an item crosses when `q + ν ≥` this.
    crossing: f64,
    /// The query-noise scale `b`.
    noise_scale: f64,
    /// Selections still open after pass 1 (`c − k ≥ 1`).
    need: usize,
    /// The last pass that may run.
    max_passes: usize,
}

impl LaterPasses {
    /// Draws every survivor's first-crossing pass from `rng`, one open
    /// uniform `W` each in survivor order, and keeps the `need`
    /// smallest `(pass, position)` keys in a bounded max-heap; appends
    /// their items to the selection in key order and returns the run's
    /// pass count.
    ///
    /// With `V = 1 − W`, the pass is `2 + ⌊ln V / ln(1 − π)⌋`, which is
    /// `2 + Geom(π)` because `P[⌊ln V / ln(1 − π)⌋ ≥ m] =
    /// P[V ≤ (1 − π)ᵐ] = (1 − π)ᵐ`. Most survivors sit far below the
    /// threshold, so a cheap test on the batched `ln W` rejects them
    /// first: for `x = T + ρ − q ≥ 0`, `π = ½e^{−x/b}`, and
    /// `(B − 1)π < W` implies `V < 1 − (B − 1)π ≤ (1 − π)^{B−1}`, i.e. a
    /// pass beyond the current bound `B`. The test only skips survivors
    /// the exact formula would place beyond `B`, so it changes no key.
    fn resolve<S: ScoreSource + ?Sized>(
        &self,
        scores: &S,
        survivors: usize,
        rng: &mut DpRng,
        scratch: &mut RunScratch,
    ) -> usize {
        let inv_b = 1.0 / self.noise_scale;
        let (order, selected, keys) = scratch.retr_parts();
        let mut heap = BinaryHeap::from(std::mem::take(keys));
        heap.clear();
        // The last pass a survivor may still enter the heap at: every
        // later pass is a guaranteed reject.
        let mut bound = u32::try_from(self.max_passes).unwrap_or(u32::MAX);
        let mut reject_at = reject_cut(bound);
        let mut qs = [0.0f64; RESOLVE_BLOCK];
        let mut ws = [0.0f64; RESOLVE_BLOCK];
        let mut ln_ws = [0.0f64; RESOLVE_BLOCK];
        'sweep: for (block, items) in order[..survivors].chunks(RESOLVE_BLOCK).enumerate() {
            let w = items.len();
            for (q, &item) in qs.iter_mut().zip(items) {
                *q = scores.score(item as usize);
            }
            rng.fill_open_uniform(&mut ws[..w]);
            fastmath::ln_into(&ws[..w], &mut ln_ws[..w]);
            for t in 0..w {
                let x = self.crossing - qs[t];
                let x_b = x * inv_b;
                if x >= 0.0 && x_b + ln_ws[t] >= reject_at {
                    continue;
                }
                // ln(1 − π), computed without cancellation on both
                // sides of the threshold.
                let ln_stay = if x < 0.0 {
                    x_b - std::f64::consts::LN_2
                } else {
                    (-0.5 * (-x_b).exp()).ln_1p()
                };
                // ln_stay == 0 (π underflowed to 0) gives +∞: never.
                let pass = 2.0 + ((-ws[t]).ln_1p() / ln_stay).floor();
                if pass > f64::from(bound) {
                    continue;
                }
                let key = (pass as u64) << 32 | (block * RESOLVE_BLOCK + t) as u64;
                if heap.len() < self.need {
                    heap.push(key);
                } else if let Some(mut top) = heap.peek_mut() {
                    // `pass ≤ bound` puts the key below the current top.
                    *top = key;
                }
                if heap.len() == self.need {
                    // A later survivor has a larger position, so it
                    // must beat the top's pass outright.
                    let top_pass = heap.peek().map_or(0, |&k| (k >> 32) as u32);
                    bound = top_pass.saturating_sub(1);
                    if bound < 2 {
                        break 'sweep;
                    }
                    reject_at = reject_cut(bound);
                }
            }
        }
        let sorted = heap.into_sorted_vec();
        selected.extend(
            sorted
                .iter()
                .map(|&k| order[(k & u64::from(u32::MAX)) as usize] as usize),
        );
        let last_pass = sorted.last().map(|&k| (k >> 32) as usize);
        *keys = sorted;
        match last_pass {
            // Filled to `c`, or every survivor got selected: the run
            // ends with the pass of its last selection.
            Some(pass) if keys.len() == self.need || keys.len() == survivors => pass,
            _ => self.max_passes,
        }
    }
}

/// The rejection cut for bound `B`: a survivor with
/// `x/b + ln W ≥ ln((B − 1)/2) + margin` and `x ≥ 0` cannot cross by
/// pass `B` (see [`LaterPasses::resolve`]).
fn reject_cut(bound: u32) -> f64 {
    (f64::from(bound - 1) / 2.0).ln() + REJECT_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::BudgetRatio;

    #[test]
    fn threshold_increase_matches_units() {
        let cfg = RetraversalConfig::paper(0.1, 25, 2.0);
        let std = cfg.select.to_standard().unwrap();
        let want = 2.0 * std::f64::consts::SQRT_2 * std.query_noise_scale();
        assert!((cfg.threshold_increase().unwrap() - want).abs() < 1e-9);

        let mut raw = cfg;
        raw.unit = IncrementUnit::NoiseScale;
        let want_raw = 2.0 * std.query_noise_scale();
        assert!((raw.threshold_increase().unwrap() - want_raw).abs() < 1e-9);
    }

    #[test]
    fn retraversal_fills_to_c_when_possible() {
        // Threshold raised far above everything: pass 1 selects almost
        // nothing, retraversal keeps going until c fill up (every query
        // has a positive crossing probability).
        let scores = vec![100.0f64; 40];
        let mut cfg = RetraversalConfig::paper(2.0, 10, 1.0);
        cfg.max_passes = 64;
        let mut rng = DpRng::seed_from_u64(509);
        let out = svt_retraversal(&scores, 100.0, &cfg, &mut rng).unwrap();
        assert_eq!(out.selected.len(), 10);
        let mut d = out.selected.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10, "selections must be distinct items");
    }

    #[test]
    fn single_pass_when_plenty_cross_immediately() {
        let scores = vec![1e9f64; 40];
        let cfg = RetraversalConfig {
            select: SvtSelectConfig::counting(10.0, 5, BudgetRatio::OneToOne),
            increment: 1.0,
            unit: IncrementUnit::NoiseStdDev,
            max_passes: 64,
        };
        let mut rng = DpRng::seed_from_u64(521);
        let out = svt_retraversal(&scores, 0.0, &cfg, &mut rng).unwrap();
        assert_eq!(out.passes, 1);
        assert_eq!(out.selected.len(), 5);
    }

    #[test]
    fn max_passes_caps_the_loop() {
        // Scores astronomically below the threshold: crossing is
        // essentially impossible, the loop must stop at max_passes.
        let scores = vec![-1e12f64; 5];
        let mut cfg = RetraversalConfig::paper(0.1, 3, 1.0);
        cfg.max_passes = 4;
        let mut rng = DpRng::seed_from_u64(523);
        let out = svt_retraversal(&scores, 0.0, &cfg, &mut rng).unwrap();
        assert!(out.passes <= 4);
        assert!(out.selected.len() < 3);
    }

    #[test]
    fn zero_max_passes_is_rejected() {
        let mut cfg = RetraversalConfig::paper(0.1, 3, 1.0);
        cfg.max_passes = 0;
        let mut rng = DpRng::seed_from_u64(541);
        assert!(svt_retraversal(&[1.0], 0.0, &cfg, &mut rng).is_err());
    }

    #[test]
    fn streaming_retraversal_fills_to_c_when_possible() {
        let scores = vec![100.0f64; 40];
        let mut cfg = RetraversalConfig::paper(2.0, 10, 1.0);
        cfg.max_passes = 64;
        let mut rng = DpRng::seed_from_u64(509);
        let mut scratch = RunScratch::new();
        let run = svt_retraversal_into(&scores, 100.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!(scratch.selected().len(), 10);
        assert!(run.passes >= 1);
        let mut d = scratch.selected().to_vec();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10, "selections must be distinct items");
    }

    #[test]
    fn streaming_retraversal_is_noise_batch_size_invariant() {
        let scores: Vec<f64> = (0..500).map(|i| f64::from(i % 83)).collect();
        let mut cfg = RetraversalConfig::paper(1.0, 12, 2.0);
        cfg.max_passes = 16;
        let reference = {
            let mut rng = DpRng::seed_from_u64(613);
            let mut scratch = RunScratch::with_noise_batch(1);
            let run = svt_retraversal_into(&scores, 60.0, &cfg, &mut rng, &mut scratch).unwrap();
            (scratch.selected().to_vec(), run)
        };
        for batch in [3usize, 64, 1024] {
            let mut rng = DpRng::seed_from_u64(613);
            let mut scratch = RunScratch::with_noise_batch(batch);
            let run = svt_retraversal_into(&scores, 60.0, &cfg, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected(), &reference.0[..], "batch {batch}");
            assert_eq!(run, reference.1, "batch {batch}");
        }
    }

    #[test]
    fn streaming_retraversal_matches_scalar_distribution() {
        // Same output distribution as the Vec-allocating reference: the
        // mean number of passes and selections must agree statistically.
        let scores: Vec<f64> = (0..200).map(f64::from).collect();
        let mut cfg = RetraversalConfig::paper(1.5, 8, 2.0);
        cfg.max_passes = 32;
        let runs = 300;
        let mut rng_a = DpRng::seed_from_u64(21001);
        let mut rng_b = DpRng::seed_from_u64(88123);
        let mut scratch = RunScratch::new();
        let (mut sel_new, mut pass_new, mut sel_old, mut pass_old) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..runs {
            let run = svt_retraversal_into(&scores, 150.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            sel_new += scratch.selected().len() as f64;
            pass_new += run.passes as f64;
            let out = svt_retraversal(&scores, 150.0, &cfg, &mut rng_b).unwrap();
            sel_old += out.selected.len() as f64;
            pass_old += out.passes as f64;
        }
        let n = runs as f64;
        assert!(
            (sel_new / n - sel_old / n).abs() < 0.8,
            "selected {} vs {}",
            sel_new / n,
            sel_old / n
        );
        assert!(
            (pass_new / n - pass_old / n).abs() < 0.8,
            "passes {} vs {}",
            pass_new / n,
            pass_old / n
        );
    }

    #[test]
    fn streaming_retraversal_caps_passes_and_rejects_zero() {
        let scores = vec![-1e12f64; 5];
        let mut cfg = RetraversalConfig::paper(0.1, 3, 1.0);
        cfg.max_passes = 4;
        let mut rng = DpRng::seed_from_u64(523);
        let mut scratch = RunScratch::new();
        let run = svt_retraversal_into(&scores, 0.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert!(run.passes <= 4);
        assert!(scratch.selected().len() < 3);

        cfg.max_passes = 0;
        assert!(svt_retraversal_into(&scores, 0.0, &cfg, &mut rng, &mut scratch).is_err());
    }

    #[test]
    fn selected_items_never_repeat_across_passes() {
        let scores: Vec<f64> = (0..30).map(|i| i as f64 * 10.0).collect();
        let mut cfg = RetraversalConfig::paper(1.0, 8, 3.0);
        cfg.max_passes = 64;
        let mut rng = DpRng::seed_from_u64(547);
        for _ in 0..20 {
            let out = svt_retraversal(&scores, 100.0, &cfg, &mut rng).unwrap();
            let mut d = out.selected.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), out.selected.len());
        }
    }

    /// Selections recorded from the per-item retraversal loop for runs
    /// that halt in pass 1 (or stop there at `max_passes == 1`):
    /// `(epsilon, c, k, base, max_passes, seed, examined, selection)`
    /// over [`golden_scores`].
    #[allow(clippy::type_complexity)]
    const PASS_ONE_GOLDENS: &[(f64, usize, f64, f64, usize, u64, usize, &[usize])] = &[
        (
            1.0,
            10,
            1.0,
            300.0,
            64,
            3,
            30,
            &[1990, 1528, 1670, 2651, 752, 1505, 860, 1493, 1168, 1853],
        ),
        (
            1.0,
            10,
            1.0,
            300.0,
            64,
            17,
            42,
            &[1322, 792, 1390, 2029, 627, 2805, 455, 1812, 1243, 2936],
        ),
        (
            0.5,
            25,
            3.0,
            250.0,
            64,
            3,
            1166,
            &[
                1463, 537, 2292, 2007, 250, 911, 1648, 518, 1745, 1756, 171, 1454, 2296, 2241,
                1693, 2378, 2410, 1157, 2902, 1322, 2941, 1545, 1819, 2194, 1659,
            ],
        ),
        (2.0, 5, 5.0, 380.0, 64, 17, 83, &[627, 1243, 74, 650, 319]),
        (
            0.3,
            12,
            2.0,
            420.0,
            1,
            3,
            3000,
            &[1756, 1693, 1659, 2656, 598, 302, 2891, 1323, 901, 1516, 108],
        ),
        (
            0.3,
            12,
            2.0,
            420.0,
            1,
            17,
            584,
            &[
                627, 319, 2231, 1413, 512, 112, 854, 912, 1893, 2161, 1733, 2566,
            ],
        ),
    ];

    fn golden_scores() -> Vec<f64> {
        (0..3000).map(|i| f64::from((i * 37) % 211) * 2.0).collect()
    }

    #[test]
    fn pass_one_runs_match_recorded_selections() {
        // Pass 1 runs on the pipelined window driver; for runs that end
        // there it must stay draw-for-draw a per-item loop, on both
        // score sources and both noise kernels. The 1166-item case
        // crosses the order's densify trigger (n/8).
        let scores = golden_scores();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        for &(eps, c, k, base, max_passes, seed, examined, want) in PASS_ONE_GOLDENS {
            let mut cfg = RetraversalConfig::paper(eps, c, k);
            cfg.max_passes = max_passes;
            for mut scratch in [RunScratch::new(), RunScratch::with_noise_batch(1)] {
                let mut rng = DpRng::seed_from_u64(seed);
                let run =
                    svt_retraversal_from(&scores[..], base, &cfg, &mut rng, &mut scratch).unwrap();
                assert_eq!(run.passes, 1, "seed {seed}");
                assert_eq!(scratch.selected(), want, "slice, seed {seed}");
                assert_eq!(scratch.examined(), examined, "seed {seed}");
                let mut rng = DpRng::seed_from_u64(seed);
                svt_retraversal_from(&groups, base, &cfg, &mut rng, &mut scratch).unwrap();
                assert_eq!(scratch.selected(), want, "grouped, seed {seed}");
            }
        }
    }

    /// Pass-count histogram, per-item selection counts and selection
    /// sizes of `runs` runs of one sampler.
    struct Sample {
        passes: Vec<u64>,
        items: Vec<u64>,
        sizes: Vec<f64>,
    }

    impl Sample {
        fn new(n: usize, max_passes: usize) -> Self {
            Self {
                passes: vec![0; max_passes + 1],
                items: vec![0; n],
                sizes: Vec::new(),
            }
        }

        fn record(&mut self, passes: usize, selected: &[usize]) {
            self.passes[passes] += 1;
            for &i in selected {
                self.items[i] += 1;
            }
            self.sizes.push(selected.len() as f64);
        }
    }

    /// Runs the resolver-backed sampler and the scalar oracle `runs`
    /// times each, from different fixed seeds.
    fn sample_both(
        scores: &[f64],
        base: f64,
        cfg: &RetraversalConfig,
        runs: usize,
        seed: u64,
    ) -> (Sample, Sample) {
        let mut fast = Sample::new(scores.len(), cfg.max_passes);
        let mut oracle = Sample::new(scores.len(), cfg.max_passes);
        let mut rng_fast = DpRng::seed_from_u64(seed);
        let mut rng_oracle = DpRng::seed_from_u64(seed ^ 0x5eed_0dd5);
        let mut scratch = RunScratch::new();
        for _ in 0..runs {
            let run = svt_retraversal_into(scores, base, cfg, &mut rng_fast, &mut scratch).unwrap();
            fast.record(run.passes, scratch.selected());
            let out = svt_retraversal(scores, base, cfg, &mut rng_oracle).unwrap();
            oracle.record(out.passes, &out.selected);
        }
        (fast, oracle)
    }

    /// Two-sample chi-square homogeneity statistic and its degrees of
    /// freedom for equally sized samples of category counts, merging
    /// adjacent categories until each holds at least `min` observations
    /// across both samples.
    fn chi_square_two_sample(a: &[u64], b: &[u64], min: u64) -> (f64, usize) {
        let mut bins: Vec<(u64, u64)> = Vec::new();
        let mut open = (0u64, 0u64);
        for (&x, &y) in a.iter().zip(b) {
            open = (open.0 + x, open.1 + y);
            if open.0 + open.1 >= min {
                bins.push(open);
                open = (0, 0);
            }
        }
        if let Some(last) = bins.last_mut() {
            *last = (last.0 + open.0, last.1 + open.1);
        }
        let stat = bins
            .iter()
            .map(|&(x, y)| (x as f64 - y as f64).powi(2) / (x + y) as f64)
            .sum();
        (stat, bins.len().saturating_sub(1))
    }

    /// Upper 0.1 % point of the chi-square law with `df` degrees of
    /// freedom (Wilson–Hilferty).
    fn chi_square_crit(df: usize) -> f64 {
        let d = df as f64;
        let h = 2.0 / (9.0 * d);
        d * (1.0 - h + 3.09 * h.sqrt()).powi(3)
    }

    fn assert_same_law(fast: &Sample, oracle: &Sample, what: &str) {
        for (name, a, b) in [
            ("pass counts", &fast.passes, &oracle.passes),
            ("item frequencies", &fast.items, &oracle.items),
        ] {
            let (stat, df) = chi_square_two_sample(a, b, 20);
            if df > 0 {
                assert!(
                    stat < chi_square_crit(df),
                    "{what}: {name} chi-square {stat:.1} on {df} df"
                );
            }
        }
        let moments = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64;
            (m, var / v.len() as f64)
        };
        let ((ma, sa), (mb, sb)) = (moments(&fast.sizes), moments(&oracle.sizes));
        let z = (ma - mb).abs() / (sa + sb).sqrt().max(1e-12);
        assert!(z < 4.0, "{what}: mean selected {ma} vs {mb} (z {z:.2})");
    }

    fn spread_scores() -> Vec<f64> {
        (0..60).map(|i| f64::from(i % 20) * 3.0).collect()
    }

    #[test]
    fn resolver_matches_scalar_pass_and_selection_law() {
        // Multi-pass runs with pass counts spread over 1..64.
        let cfg = RetraversalConfig::paper(3.0, 10, 1.0);
        let (fast, oracle) = sample_both(&spread_scores(), 50.0, &cfg, 1500, 71);
        assert!(fast.passes[1] < 100, "the case must exercise later passes");
        assert_same_law(&fast, &oracle, "spread");
    }

    #[test]
    fn resolver_matches_scalar_at_two_and_three_passes() {
        for (max_passes, seed) in [(2usize, 73u64), (3, 79)] {
            let mut cfg = RetraversalConfig::paper(3.0, 10, 1.0);
            cfg.max_passes = max_passes;
            let (fast, oracle) = sample_both(&spread_scores(), 50.0, &cfg, 1500, seed);
            assert_same_law(&fast, &oracle, &format!("max_passes {max_passes}"));
        }
    }

    #[test]
    fn resolver_matches_scalar_when_every_survivor_is_selected() {
        // c exceeds the item count: every run ends when the last
        // survivor crosses, and reports that pass.
        let scores: Vec<f64> = (0..5).map(|i| f64::from(i) * 2.0).collect();
        let cfg = RetraversalConfig::paper(1.0, 8, 1.0);
        let (fast, oracle) = sample_both(&scores, 10.0, &cfg, 1500, 83);
        let finished = |s: &Sample| s.sizes.iter().filter(|&&k| k == 5.0).count();
        assert!(finished(&fast) > 1000, "most runs select every item");
        assert_same_law(&fast, &oracle, "every survivor");
    }

    #[test]
    fn resolver_selects_nothing_when_crossing_is_impossible() {
        // π underflows to 0 for every survivor: both samplers stop at
        // max_passes with an empty selection.
        let scores = vec![-1e12f64; 50];
        for max_passes in [2usize, 3, 64] {
            let mut cfg = RetraversalConfig::paper(0.5, 5, 1.0);
            cfg.max_passes = max_passes;
            let mut rng = DpRng::seed_from_u64(89);
            let mut scratch = RunScratch::new();
            for _ in 0..20 {
                let run = svt_retraversal_into(&scores, 0.0, &cfg, &mut rng, &mut scratch).unwrap();
                assert_eq!(run.passes, max_passes);
                assert!(scratch.selected().is_empty());
                let out = svt_retraversal(&scores, 0.0, &cfg, &mut rng).unwrap();
                assert_eq!(out.passes, max_passes);
                assert!(out.selected.is_empty());
            }
        }
    }

    #[test]
    fn resolver_matches_scalar_with_a_negative_threshold() {
        // t < 0 with every score above it: survivors mostly sit above
        // T + ρ, where π > ½ (the other branch of ln(1 − π)).
        let cfg = RetraversalConfig::paper(1.0, 30, 0.0);
        let (fast, oracle) = sample_both(&vec![0.0; 30], -20.0, &cfg, 1500, 97);
        assert_same_law(&fast, &oracle, "negative threshold");
    }
}
