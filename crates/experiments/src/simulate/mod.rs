//! Run engines: exact per-query traversal and its grouped bit-level
//! mirror.
//!
//! Both engines execute the **same draw protocol** over the **same
//! per-dataset [`SweepContext`]** — the exact engine reads scores from
//! the raw slice, the grouped engine resolves them through the shared
//! [`GroupedSnapshot`](dp_data::GroupedSnapshot) runs — so for every
//! algorithm they emit *bit-identical* index streams from the same
//! generator state. The equivalence argument (and what it buys as a
//! cross-check) lives in [`grouped`]; the runner's sweep-level tests
//! pin it selection-by-selection.

pub mod context;
pub mod exact;
pub mod grouped;

pub use context::{ContextSetup, SweepContext};

use crate::spec::AlgorithmSpec;
use dp_data::RankCut;
use dp_mechanisms::DpRng;
use svt_core::alg::Alg2;
use svt_core::em_select::EmTopC;
use svt_core::noninteractive::SvtSelectConfig;
use svt_core::retraversal::{svt_retraversal_from, IncrementUnit, RetraversalConfig};
use svt_core::streaming::{
    exp_noise_select_from, revisited_select_from, select_streaming_from, svt_select_from,
    RunScratch, ScoreSource,
};
use svt_core::Result;

/// The two §6 utility metrics for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// False Negative Rate of this run's selection.
    pub fnr: f64,
    /// Score Error Rate of this run's selection.
    pub ser: f64,
}

/// The SVT-ReTr configuration the harness runs for a `(ε, c, ratio,
/// increment)` cell — one definition shared by both engines, so their
/// retraversal runs are parameterized identically by construction.
pub(crate) fn retraversal_config(
    epsilon: f64,
    c: usize,
    ratio: svt_core::allocation::BudgetRatio,
    increment_d: f64,
) -> RetraversalConfig {
    RetraversalConfig {
        select: SvtSelectConfig::counting(epsilon, c, ratio),
        increment: increment_d,
        unit: IncrementUnit::NoiseStdDev,
        max_passes: 64,
    }
}

/// One streaming run of `alg` at cutoff `c` against `cut`'s threshold,
/// reading examined scores from `scores` — the dispatch both engines
/// share. The exact engine passes the raw slice, the grouped engine the
/// sweep's [`GroupedSnapshot`](dp_data::GroupedSnapshot); EM reads the
/// sweep's grouped runs either way. The selection is left in
/// [`RunScratch::selected`].
///
/// # Errors
/// Propagates configuration validation from the algorithm wrappers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_streaming<S: ScoreSource + ?Sized>(
    scores: &S,
    sweep: &SweepContext,
    cut: &RankCut,
    c: usize,
    alg: &AlgorithmSpec,
    epsilon: f64,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<RunOutcome> {
    let threshold = cut.threshold;
    match alg {
        AlgorithmSpec::DpBook => {
            let mut alg2 = Alg2::new(epsilon, 1.0, c, rng)?;
            select_streaming_from(&mut alg2, scores, threshold, rng, scratch)?;
        }
        AlgorithmSpec::Standard { ratio } => {
            let cfg = SvtSelectConfig::counting(epsilon, c, *ratio);
            svt_select_from(scores, threshold, &cfg, rng, scratch)?;
        }
        AlgorithmSpec::Retraversal { ratio, increment_d } => {
            let cfg = retraversal_config(epsilon, c, *ratio, *increment_d);
            svt_retraversal_from(scores, threshold, &cfg, rng, scratch)?;
        }
        AlgorithmSpec::Em => {
            EmTopC::new(epsilon, c, 1.0, true)?.select_grouped_into(
                sweep.groups(),
                rng,
                scratch,
            )?;
        }
        AlgorithmSpec::Revisited { ratio } => {
            let cfg = SvtSelectConfig::counting(epsilon, c, *ratio);
            revisited_select_from(scores, threshold, &cfg, rng, scratch)?;
        }
        AlgorithmSpec::ExpNoise { ratio } => {
            let cfg = SvtSelectConfig::counting(epsilon, c, *ratio);
            exp_noise_select_from(scores, threshold, &cfg, rng, scratch)?;
        }
    }
    Ok(sweep.outcome(cut, scratch.selected()))
}
