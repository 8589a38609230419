//! The session state machine / noise driver split behind every
//! interactive SVT surface in the workspace.
//!
//! The paper's interactive setting (§3–§4) makes SVT a *stateful*
//! protocol: a session fixes its threshold noise `ρ` once, answers ⊥
//! for free, counts ⊤ answers, and halts at `c`. Everything else —
//! where the noise comes from, who accounts the budget, which thread
//! owns the session — is I/O, and fusing it into the algorithm state
//! (as the original `InteractiveSvtSession` did) makes the state
//! unshareable: nothing above a single-threaded session can be built.
//!
//! This module splits the two concerns:
//!
//! - [`SessionState`] is the **pure state machine**: the validated
//!   configuration, the drawn `ρ`, the positives count, and the halt
//!   flag. It holds no RNG and no accountant, is `Copy`, and is `Send`
//!   by construction (pinned by a test), so a server can park millions
//!   of them in shared maps. Its one transition, [`SessionState::observe`],
//!   consumes an externally supplied noise value `ν` and applies lines
//!   4–9 of Algorithm 7.
//! - [`SessionDriver`] is the **thin I/O layer**: it owns a forked
//!   noise generator and a [`NoiseBuffer`], draws `ν` through the
//!   batched fill path, and feeds the state machine. Because batched
//!   fills are stream-equivalent to scalar draws (the `BatchSample`
//!   contract), a driver answering a prefetched batch of queries is
//!   bit-identical to one answering them one at a time.
//!
//! ## Draw protocol (pinned)
//!
//! [`SessionDriver::open`] consumes the caller's generator in a fixed
//! order so sessions are reproducible from a single seed:
//!
//! 1. fork the query-noise generator off `rng`;
//! 2. if the numeric phase is enabled, fork the numeric-noise generator;
//! 3. draw `ρ = Lap(Δ/ε₁)` from `rng` itself.
//!
//! This mirrors the `streaming` module's batched protocol (fork first,
//! then `ρ`), and keeping the numeric stream on its own fork means the
//! ⊤/⊥ decision stream is unaffected by whether numeric outputs are on.
//!
//! The existing public surfaces — [`StandardSvt`](crate::alg::StandardSvt),
//! [`InteractiveSvtSession`](crate::interactive::InteractiveSvtSession),
//! the mediator, and the streaming engines — are wrappers over
//! [`SessionState`]; their caller-supplied-RNG behavior is unchanged.

use crate::alg::StandardSvtConfig;
use crate::response::SvtAnswer;
use crate::{Result, SvtError};
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::{DpRng, MechanismError, NoiseBuffer};

/// How a session charges its privacy budget.
///
/// The paper's Algorithm 7 commits the whole `ε` when the session
/// opens; Kaplan–Mansour–Stemmer's *SVT Revisited* (arXiv:2010.00917)
/// instead runs `c` chained cutoff-1 instances of `ε/c` each, so budget
/// is consumed only when an instance closes with a ⊤ answer and a
/// session that never crosses the threshold spends (almost) nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargePolicy {
    /// Algorithm 7: the full `ε₁ + ε₂ (+ ε₃)` budget is spent at open.
    Upfront,
    /// SVT-Revisited: `ε/c` is spent per ⊤ answer; after each non-final
    /// ⊤ the threshold noise `ρ` must be redrawn (a fresh instance).
    PerTop,
}

/// The pure SVT session state machine: Algorithm 7 minus the noise
/// source.
///
/// Holds exactly what the protocol must remember between queries — the
/// validated configuration, the threshold noise `ρ`, the positives
/// count, and the halt flag — and nothing about where noise comes from.
/// `Copy`, `Send`, and `Sync`, so it can live in shared session stores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionState {
    config: StandardSvtConfig,
    rho: f64,
    count: usize,
    halted: bool,
    policy: ChargePolicy,
    needs_refresh: bool,
}

impl SessionState {
    /// Builds a session state from a configuration and an
    /// already-drawn threshold noise `ρ`, charging upfront
    /// (Algorithm 7's rule).
    ///
    /// # Errors
    /// Rejects non-positive sensitivity, `c == 0`, budgets implying
    /// invalid noise scales, and a non-finite `ρ`.
    pub fn new(config: StandardSvtConfig, rho: f64) -> Result<Self> {
        Self::with_policy(config, rho, ChargePolicy::Upfront)
    }

    /// Builds a session state under an explicit [`ChargePolicy`].
    ///
    /// Under [`ChargePolicy::PerTop`] the interpretation of the budget
    /// changes: `ε₁`/`ε₂` are split evenly across `c` cutoff-1
    /// instances, so the per-instance threshold scale is
    /// [`StandardSvtConfig::revisited_threshold_noise_scale`] (a factor
    /// `c` wider than Algorithm 7's) while the per-instance query scale
    /// coincides with [`StandardSvtConfig::query_noise_scale`].
    ///
    /// # Errors
    /// Same as [`new`](Self::new); additionally rejects a numeric phase
    /// under `PerTop` (SVT-Revisited defines no numeric release).
    pub fn with_policy(config: StandardSvtConfig, rho: f64, policy: ChargePolicy) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        // Scale validation mirrors StandardSvt::new; the Laplace values
        // are only constructed to reuse their parameter checks.
        Laplace::new(config.threshold_noise_scale()).map_err(SvtError::from)?;
        Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?;
        if config.budget.has_numeric_phase() {
            if policy == ChargePolicy::PerTop {
                return Err(SvtError::from(MechanismError::InvalidParameter(
                    "per-top charging (SVT-Revisited) has no numeric phase",
                )));
            }
            Laplace::new(config.numeric_noise_scale()).map_err(SvtError::from)?;
        }
        crate::error::check_finite(rho, "threshold noise")?;
        Ok(Self {
            config,
            rho,
            count: 0,
            halted: false,
            policy,
            needs_refresh: false,
        })
    }

    /// The configuration in force.
    #[inline]
    pub fn config(&self) -> &StandardSvtConfig {
        &self.config
    }

    /// The threshold noise `ρ` fixed for the session's lifetime.
    #[inline]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Positive (`⊤`) answers so far.
    #[inline]
    pub fn positives(&self) -> usize {
        self.count
    }

    /// Whether the session has spent its `c` positive answers.
    #[inline]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The budget-charging rule in force.
    #[inline]
    pub fn charge_policy(&self) -> ChargePolicy {
        self.policy
    }

    /// Privacy budget consumed so far under the session's
    /// [`ChargePolicy`]: the full budget for [`ChargePolicy::Upfront`],
    /// `positives · ε/c` for [`ChargePolicy::PerTop`].
    #[inline]
    pub fn spent_epsilon(&self) -> f64 {
        match self.policy {
            ChargePolicy::Upfront => self.config.budget.total(),
            ChargePolicy::PerTop => {
                self.config.budget.total() * self.count as f64 / self.config.c as f64
            }
        }
    }

    /// Under [`ChargePolicy::PerTop`]: does the session need a fresh
    /// threshold noise `ρ` before the next query? True exactly after a
    /// non-final ⊤ answer, until [`refresh_rho`](Self::refresh_rho) is
    /// called. Always false under [`ChargePolicy::Upfront`].
    #[inline]
    pub fn needs_rho_refresh(&self) -> bool {
        self.needs_refresh
    }

    /// Installs a freshly drawn threshold noise `ρ`, opening the next
    /// cutoff-1 instance of a [`ChargePolicy::PerTop`] session.
    ///
    /// # Errors
    /// [`SvtError::NonFiniteInput`] on a non-finite `rho` (the pending
    /// refresh, if any, stays pending).
    #[inline]
    pub fn refresh_rho(&mut self, rho: f64) -> Result<()> {
        crate::error::check_finite(rho, "threshold noise")?;
        self.rho = rho;
        self.needs_refresh = false;
        Ok(())
    }

    /// Validates a query against the current state without transitioning:
    /// the session must not be halted and both inputs must be finite.
    ///
    /// # Errors
    /// [`SvtError::Halted`] / [`SvtError::NonFiniteInput`]. Callers that
    /// check first may then use [`observe_unchecked`](Self::observe_unchecked)
    /// without drawing noise for rejected queries.
    #[inline]
    pub fn check(&self, query_answer: f64, threshold: f64) -> Result<()> {
        if self.halted {
            return Err(SvtError::Halted);
        }
        crate::error::check_finite(query_answer, "query answer")?;
        crate::error::check_finite(threshold, "threshold")?;
        Ok(())
    }

    /// Lines 4 and 9 of Algorithm 7 with the noise supplied: does
    /// `q + ν ≥ T + ρ`? Counts the positive and halts at `c`.
    ///
    /// The caller must have validated the query via [`check`](Self::check)
    /// (hot paths validate their inputs upstream once, not per query) —
    /// on a halted session this transition is a protocol violation and
    /// the answer meaningless, though no memory unsafety is possible.
    #[inline]
    pub fn observe_unchecked(&mut self, query_answer: f64, threshold: f64, nu: f64) -> bool {
        if query_answer + nu >= threshold + self.rho {
            self.count += 1;
            if self.count >= self.config.c {
                self.halted = true;
                self.needs_refresh = false;
            } else if self.policy == ChargePolicy::PerTop {
                self.needs_refresh = true;
            }
            true
        } else {
            false
        }
    }

    /// The checked transition: [`check`](Self::check) then
    /// [`observe_unchecked`](Self::observe_unchecked).
    ///
    /// # Errors
    /// [`SvtError::Halted`] once `c` positives are spent;
    /// [`SvtError::NonFiniteInput`] on bad inputs. The noise value is
    /// untouched on error.
    #[inline]
    pub fn observe(&mut self, query_answer: f64, threshold: f64, nu: f64) -> Result<bool> {
        self.check(query_answer, threshold)?;
        Ok(self.observe_unchecked(query_answer, threshold, nu))
    }
}

/// The thin I/O layer over [`SessionState`]: owns the forked noise
/// generators and the prefetch buffer, so the state machine itself
/// stays pure.
///
/// ```
/// use dp_mechanisms::{DpRng, SvtBudget};
/// use svt_core::alg::StandardSvtConfig;
/// use svt_core::session::SessionDriver;
/// use svt_core::SvtAnswer;
///
/// let mut rng = DpRng::seed_from_u64(7);
/// let config = StandardSvtConfig {
///     budget: SvtBudget::halves(1.0)?,
///     sensitivity: 1.0,
///     c: 2,
///     monotonic: true,
/// };
/// let mut driver = SessionDriver::open(config, &mut rng)?;
/// assert_eq!(driver.ask(-1e6, 0.0)?, SvtAnswer::Below);
/// assert_eq!(driver.ask(1e6, 0.0)?, SvtAnswer::Above);
/// assert_eq!(driver.queries_asked(), 2);
/// assert_eq!(driver.state().positives(), 1);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SessionDriver {
    state: SessionState,
    query_noise: Laplace,
    numeric_noise: Option<Laplace>,
    threshold_noise: Option<Laplace>,
    noise_rng: DpRng,
    numeric_rng: Option<DpRng>,
    threshold_rng: Option<DpRng>,
    noise: NoiseBuffer,
    asked: usize,
}

impl SessionDriver {
    /// Opens a driver, consuming `rng` per the module-level draw
    /// protocol (fork noise generator(s), then draw `ρ` from `rng`).
    ///
    /// # Errors
    /// Rejects the same invalid configurations as
    /// [`StandardSvt::new`](crate::alg::StandardSvt::new).
    pub fn open(config: StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        let query_noise = Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?;
        let numeric_noise = if config.budget.has_numeric_phase() {
            Some(Laplace::new(config.numeric_noise_scale()).map_err(SvtError::from)?)
        } else {
            None
        };
        let noise_rng = rng.fork();
        let numeric_rng = numeric_noise.is_some().then(|| rng.fork());
        let rho = Laplace::new(config.threshold_noise_scale())
            .map_err(SvtError::from)?
            .sample(rng);
        Ok(Self {
            state: SessionState::new(config, rho)?,
            query_noise,
            numeric_noise,
            threshold_noise: None,
            noise_rng,
            numeric_rng,
            threshold_rng: None,
            noise: NoiseBuffer::new(),
            asked: 0,
        })
    }

    /// Opens an SVT-Revisited session: `c` chained cutoff-1 instances,
    /// budget charged only on ⊤ answers ([`ChargePolicy::PerTop`]).
    ///
    /// Draw protocol (pinned, a superset of [`open`](Self::open)'s):
    ///
    /// 1. fork the query-noise generator off `rng`;
    /// 2. fork the threshold-refresh generator off `rng`;
    /// 3. draw the first instance's `ρ` from `rng` itself.
    ///
    /// The refresh generator is deliberately *not* the query-noise
    /// fork: [`prefetch_noise`](Self::prefetch_noise) runs the query
    /// fork ahead of consumption, so interleaving `ρ` redraws into the
    /// same stream would make answers depend on the prefetch schedule.
    ///
    /// # Errors
    /// Same as [`open`](Self::open); additionally rejects budgets with a
    /// numeric phase (SVT-Revisited defines no numeric release).
    pub fn open_revisited(config: StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        let query_noise = Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?;
        let threshold_noise =
            Laplace::new(config.revisited_threshold_noise_scale()).map_err(SvtError::from)?;
        let noise_rng = rng.fork();
        let threshold_rng = rng.fork();
        let rho = threshold_noise.sample(rng);
        Ok(Self {
            state: SessionState::with_policy(config, rho, ChargePolicy::PerTop)?,
            query_noise,
            numeric_noise: None,
            threshold_noise: Some(threshold_noise),
            noise_rng,
            numeric_rng: None,
            threshold_rng: Some(threshold_rng),
            noise: NoiseBuffer::new(),
            asked: 0,
        })
    }

    /// The underlying state machine.
    #[inline]
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// Queries successfully answered so far (error paths do not count).
    #[inline]
    pub fn queries_asked(&self) -> usize {
        self.asked
    }

    /// Whether the session has spent its `c` positive answers.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.state.is_halted()
    }

    /// Asks one query: draws `ν` through the buffered batch path, feeds
    /// the state machine, and renders the answer (numeric-phase answers
    /// draw from the dedicated numeric fork).
    ///
    /// # Errors
    /// [`SvtError::Halted`] once the session's `c` positives are spent;
    /// [`SvtError::NonFiniteInput`] on bad inputs. No noise is consumed
    /// and the query is not counted on error.
    pub fn ask(&mut self, query_answer: f64, threshold: f64) -> Result<SvtAnswer> {
        self.state.check(query_answer, threshold)?;
        let nu = self.noise.next(&self.query_noise, &mut self.noise_rng);
        let positive = self.state.observe_unchecked(query_answer, threshold, nu);
        self.asked += 1;
        if positive {
            if self.state.needs_rho_refresh() {
                if let (Some(noise), Some(rng)) = (&self.threshold_noise, &mut self.threshold_rng) {
                    let rho = noise.sample(rng);
                    self.state.refresh_rho(rho)?;
                }
            }
            if let (Some(noise), Some(rng)) = (&self.numeric_noise, &mut self.numeric_rng) {
                return Ok(SvtAnswer::Numeric(query_answer + noise.sample(rng)));
            }
            Ok(SvtAnswer::Above)
        } else {
            Ok(SvtAnswer::Below)
        }
    }

    /// Privacy budget consumed so far (see [`SessionState::spent_epsilon`]).
    #[inline]
    pub fn spent_epsilon(&self) -> f64 {
        self.state.spent_epsilon()
    }

    /// Ensures `n` query-noise values are buffered using a single
    /// batched generator fill — the serving layer's way to answer a
    /// batch of queries with one fill per session per batch.
    ///
    /// Prefetching never changes the answers (see
    /// [`NoiseBuffer::prefetch`]); over-prefetching for queries that end
    /// up rejected is harmless.
    #[inline]
    pub fn prefetch_noise(&mut self, n: usize) {
        self.noise
            .prefetch(&self.query_noise, &mut self.noise_rng, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mechanisms::SvtBudget;

    fn config(c: usize, numeric: f64) -> StandardSvtConfig {
        StandardSvtConfig {
            budget: SvtBudget::new(0.25, 0.25, numeric).unwrap(),
            sensitivity: 1.0,
            c,
            monotonic: true,
        }
    }

    #[test]
    fn session_state_is_send_sync_and_copy() {
        fn assert_send_sync_copy<T: Send + Sync + Copy + 'static>() {}
        assert_send_sync_copy::<SessionState>();
        fn assert_send<T: Send + 'static>() {}
        assert_send::<SessionDriver>();
    }

    #[test]
    fn observe_applies_algorithm_seven_lines() {
        let mut s = SessionState::new(config(2, 0.0), 0.5).unwrap();
        // q + ν < T + ρ → ⊥, free.
        assert!(!s.observe(1.0, 2.0, 0.0).unwrap());
        assert_eq!(s.positives(), 0);
        // q + ν ≥ T + ρ → ⊤.
        assert!(s.observe(3.0, 2.0, 0.0).unwrap());
        assert!(s.observe(10.0, 2.0, -1.0).unwrap());
        assert!(s.is_halted());
        assert!(matches!(s.observe(0.0, 0.0, 0.0), Err(SvtError::Halted)));
    }

    #[test]
    fn state_validates_like_standard_svt() {
        let mut bad = config(1, 0.0);
        bad.sensitivity = -1.0;
        assert!(SessionState::new(bad, 0.0).is_err());
        let mut bad_c = config(1, 0.0);
        bad_c.c = 0;
        assert!(SessionState::new(bad_c, 0.0).is_err());
        assert!(SessionState::new(config(1, 0.0), f64::NAN).is_err());
    }

    #[test]
    fn driver_errors_do_not_consume_noise_or_count_queries() {
        let mut rng = DpRng::seed_from_u64(11);
        let mut a = SessionDriver::open(config(3, 0.0), &mut rng).unwrap();
        let mut rng2 = DpRng::seed_from_u64(11);
        let mut b = SessionDriver::open(config(3, 0.0), &mut rng2).unwrap();

        // Driver `a` suffers rejected queries interleaved with good ones;
        // driver `b` sees only the good ones. Streams must match.
        let mut answers_a = Vec::new();
        for i in 0..50 {
            if i % 3 == 0 {
                assert!(a.ask(f64::NAN, 0.0).is_err());
            }
            answers_a.push(a.ask(-(i as f64), 100.0).unwrap());
        }
        let answers_b: Vec<_> = (0..50)
            .map(|i| b.ask(-(i as f64), 100.0).unwrap())
            .collect();
        assert_eq!(answers_a, answers_b);
        assert_eq!(a.queries_asked(), 50);
        assert_eq!(b.queries_asked(), 50);
    }

    #[test]
    fn driver_prefetch_does_not_change_answers() {
        let queries: Vec<(f64, f64)> = (0..200)
            .map(|i| (if i % 7 == 0 { 1e6 } else { -1e6 }, 0.0))
            .collect();
        let cfg = config(usize::MAX >> 1, 0.5);

        let mut rng = DpRng::seed_from_u64(23);
        let mut plain = SessionDriver::open(cfg, &mut rng).unwrap();
        let reference: Vec<_> = queries
            .iter()
            .map(|&(q, t)| plain.ask(q, t).unwrap())
            .collect();

        let mut rng = DpRng::seed_from_u64(23);
        let mut batched = SessionDriver::open(cfg, &mut rng).unwrap();
        let mut got = Vec::new();
        for chunk in queries.chunks(17) {
            batched.prefetch_noise(chunk.len());
            for &(q, t) in chunk {
                got.push(batched.ask(q, t).unwrap());
            }
        }
        assert_eq!(got, reference);
    }

    #[test]
    fn driver_halts_after_c_positives() {
        let mut rng = DpRng::seed_from_u64(31);
        let mut d = SessionDriver::open(config(2, 0.0), &mut rng).unwrap();
        assert_eq!(d.ask(1e9, 0.0).unwrap(), SvtAnswer::Above);
        assert_eq!(d.ask(1e9, 0.0).unwrap(), SvtAnswer::Above);
        assert!(d.is_exhausted());
        assert!(matches!(d.ask(0.0, 0.0), Err(SvtError::Halted)));
        // The rejected ask after halt is not counted.
        assert_eq!(d.queries_asked(), 2);
    }

    #[test]
    fn per_top_state_charges_per_positive_and_requests_refreshes() {
        let mut s = SessionState::with_policy(config(3, 0.0), 0.0, ChargePolicy::PerTop).unwrap();
        assert_eq!(s.charge_policy(), ChargePolicy::PerTop);
        assert_eq!(s.spent_epsilon(), 0.0);
        assert!(!s.observe(1.0, 2.0, 0.0).unwrap());
        assert_eq!(s.spent_epsilon(), 0.0, "⊥ is free");
        assert!(!s.needs_rho_refresh());
        assert!(s.observe(3.0, 2.0, 0.0).unwrap());
        assert!((s.spent_epsilon() - 0.5 / 3.0).abs() < 1e-12);
        assert!(s.needs_rho_refresh(), "non-final ⊤ opens a new instance");
        assert!(s.refresh_rho(f64::NAN).is_err());
        assert!(s.needs_rho_refresh(), "failed refresh stays pending");
        s.refresh_rho(1.5).unwrap();
        assert_eq!(s.rho(), 1.5);
        assert!(!s.needs_rho_refresh());
        assert!(s.observe(10.0, 2.0, 0.0).unwrap());
        s.refresh_rho(0.0).unwrap();
        assert!(s.observe(10.0, 2.0, 0.0).unwrap());
        assert!(s.is_halted());
        assert!(!s.needs_rho_refresh(), "the final ⊤ needs no refresh");
        assert!((s.spent_epsilon() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn upfront_state_spends_everything_at_open() {
        let s = SessionState::new(config(3, 0.5), 0.0).unwrap();
        assert_eq!(s.charge_policy(), ChargePolicy::Upfront);
        assert!((s.spent_epsilon() - 1.0).abs() < 1e-12);
        assert!(!s.needs_rho_refresh());
    }

    #[test]
    fn per_top_rejects_numeric_phase() {
        assert!(SessionState::with_policy(config(2, 0.5), 0.0, ChargePolicy::PerTop).is_err());
        let mut rng = DpRng::seed_from_u64(43);
        assert!(SessionDriver::open_revisited(config(2, 0.5), &mut rng).is_err());
    }

    #[test]
    fn revisited_driver_charges_per_top_and_halts() {
        let mut rng = DpRng::seed_from_u64(47);
        let mut d = SessionDriver::open_revisited(config(2, 0.0), &mut rng).unwrap();
        assert_eq!(d.spent_epsilon(), 0.0);
        assert_eq!(d.ask(-1e9, 0.0).unwrap(), SvtAnswer::Below);
        assert_eq!(d.spent_epsilon(), 0.0);
        let rho_before = d.state().rho();
        assert_eq!(d.ask(1e9, 0.0).unwrap(), SvtAnswer::Above);
        assert!((d.spent_epsilon() - 0.25).abs() < 1e-12);
        assert_ne!(d.state().rho(), rho_before, "⊤ must refresh ρ");
        assert!(!d.state().needs_rho_refresh(), "refresh is internal");
        assert_eq!(d.ask(1e9, 0.0).unwrap(), SvtAnswer::Above);
        assert!(d.is_exhausted());
        assert!((d.spent_epsilon() - 0.5).abs() < 1e-12);
        assert!(matches!(d.ask(0.0, 0.0), Err(SvtError::Halted)));
    }

    #[test]
    fn revisited_driver_prefetch_does_not_change_answers() {
        // The ρ refreshes live on their own fork, so running the query
        // noise ahead of consumption must not perturb the stream even
        // when ⊤ answers (and hence refreshes) land mid-batch.
        let queries: Vec<(f64, f64)> = (0..200)
            .map(|i| (if i % 7 == 0 { 1e6 } else { -1e6 }, 0.0))
            .collect();
        let cfg = config(usize::MAX >> 1, 0.0);

        let mut rng = DpRng::seed_from_u64(53);
        let mut plain = SessionDriver::open_revisited(cfg, &mut rng).unwrap();
        let reference: Vec<_> = queries
            .iter()
            .map(|&(q, t)| plain.ask(q, t).unwrap())
            .collect();

        let mut rng = DpRng::seed_from_u64(53);
        let mut batched = SessionDriver::open_revisited(cfg, &mut rng).unwrap();
        let mut got = Vec::new();
        for chunk in queries.chunks(17) {
            batched.prefetch_noise(chunk.len());
            for &(q, t) in chunk {
                got.push(batched.ask(q, t).unwrap());
            }
        }
        assert_eq!(got, reference);
        assert_eq!(batched.spent_epsilon(), plain.spent_epsilon());
    }

    #[test]
    fn numeric_phase_uses_its_own_fork() {
        // The ⊤/⊥ decision stream must be identical with and without the
        // numeric phase: the numeric draws live on a separate fork.
        let queries: Vec<f64> = (0..100)
            .map(|i| if i % 5 == 0 { 1e6 } else { -1e6 })
            .collect();
        let mut rng = DpRng::seed_from_u64(41);
        let mut plain = SessionDriver::open(config(1000, 0.0), &mut rng).unwrap();
        let mut rng = DpRng::seed_from_u64(41);
        let mut numeric = SessionDriver::open(config(1000, 0.5), &mut rng).unwrap();
        for &q in &queries {
            let a = plain.ask(q, 0.0).unwrap();
            let b = numeric.ask(q, 0.0).unwrap();
            assert_eq!(a.is_positive(), b.is_positive(), "q={q}");
            if b.is_positive() {
                assert!(matches!(b, SvtAnswer::Numeric(_)));
            }
        }
    }
}
