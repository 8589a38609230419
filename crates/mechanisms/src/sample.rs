//! The batched-sampling contract shared by the noise distributions.
//!
//! The simulation engines draw noise through reusable buffers
//! ([`crate::NoiseBuffer`]) or chunked fills so the RNG stays on its
//! block-wise path. [`BatchSample`] is the contract that makes this
//! safe: a distribution's batched fill consumes exactly the RNG words
//! of the equivalent sequence of scalar draws, so prefetching more or
//! less noise can never change an experiment's output.
//! [`Laplace`](crate::Laplace), [`Gumbel`](crate::Gumbel) and
//! [`Exponential`](crate::Exponential) all implement it, each backed by
//! [`DpRng::fill_open_uniform`] (which upholds the same contract at the
//! uniform level) and property-tested for stream equivalence.
//!
//! ## One transform per sampler
//!
//! How a uniform becomes noise is fixed per distribution, not chosen
//! by the caller. Buffered fills go through
//! [`BatchSample::sample_into_vectorized`]:
//!
//! | Sampler | Transform | Used by |
//! |---|---|---|
//! | [`Laplace`](crate::Laplace) | polynomial [`crate::fastmath`] `ln` | every [`crate::NoiseBuffer`] refill (SVT ν and ρ refresh) |
//! | [`Exponential`](crate::Exponential) | polynomial [`crate::fastmath`] `ln` | every [`crate::NoiseBuffer`] refill (exp-noise SVT ν) |
//! | [`Gumbel`](crate::Gumbel) | libm `ln` (no override) | EM per-item keys |
//! | [`GumbelMax`](crate::GumbelMax) | libm `ln` ([`GumbelMax::next_key`](crate::GumbelMax::next_key)) | grouped EM keys |
//!
//! The libm transforms were measured faster for the Gumbel double log
//! and the vectorized ones faster for the single-log samplers. Scalar
//! draws ([`BatchSample::sample_one`]) and
//! [`sample_into`](BatchSample::sample_into) always use libm.
//!
//! [`NoiseKernel`] and [`BatchSample::sample_into_kernel`] name both
//! transforms explicitly. They are a measurement and test-oracle
//! surface only: no sampling path in the workspace takes a kernel.

use crate::rng::DpRng;

/// Which transform a batched fill uses to turn uniforms into noise.
///
/// A measurement and test-oracle surface only: the shipped paths fix
/// one transform per sampler (see the [module docs](self)), and only
/// [`BatchSample::sample_into_kernel`] and
/// [`GumbelMax::next_key_with`](crate::GumbelMax::next_key_with) take a
/// kernel, so a benchmark or test can time or compare both transforms
/// on the same uniforms.
///
/// * [`Reference`](NoiseKernel::Reference) — the libm-backed transform,
///   **bit-identical to scalar sampling** ([`BatchSample::sample_one`]
///   in a loop).
/// * [`Vectorized`](NoiseKernel::Vectorized) — the auto-vectorizable
///   [`crate::fastmath`] polynomial transform: same uniforms, same
///   words consumed, same distribution, values within the documented
///   `1e-12` relative bound of the reference — but *not* bit-identical
///   to it. Deterministic across platforms and thread counts (see the
///   `fastmath` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseKernel {
    /// Libm-backed transform, bit-identical to scalar draws.
    #[default]
    Reference,
    /// Polynomial fast-log transform; same distribution and RNG stream,
    /// ≤ 1e-12 relative from the reference values.
    Vectorized,
}

/// A distribution whose batched sampling is stream-equivalent to scalar
/// sampling.
///
/// # Contract
///
/// For any generator state and any split of `n` draws into batches,
/// [`sample_into`](Self::sample_into) must produce the same `n` values
/// (bit for bit) and leave the generator in the same state as `n` calls
/// to [`sample_one`](Self::sample_one). This is what lets
/// [`NoiseBuffer`](crate::NoiseBuffer) hand out prefetched noise whose
/// stream is independent of the batch size.
///
/// [`sample_into_vectorized`](Self::sample_into_vectorized) is the
/// fill [`NoiseBuffer`](crate::NoiseBuffer) refills with. It relaxes
/// only the bit-identity: it must consume the identical word sequence
/// and sample the identical distribution, with each value within the
/// `fastmath` relative-error bound of the reference value for the same
/// uniform. The default implementation is the scalar-identical
/// [`sample_into`](Self::sample_into); a distribution overrides it only
/// where the polynomial transform is the faster one.
pub trait BatchSample {
    /// Draws one sample.
    fn sample_one(&self, rng: &mut DpRng) -> f64;

    /// Fills `out` with independent samples, bit-identical to repeated
    /// [`sample_one`](Self::sample_one) calls on the same generator.
    fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]);

    /// Fills `out` through the distribution's buffered-fill transform:
    /// same uniforms and distribution as
    /// [`sample_into`](Self::sample_into), values within the documented
    /// relative bound of the reference values.
    ///
    /// Defaults to the reference fill.
    fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        self.sample_into(rng, out);
    }

    /// Kernel-dispatched fill: [`sample_into`](Self::sample_into) under
    /// [`NoiseKernel::Reference`],
    /// [`sample_into_vectorized`](Self::sample_into_vectorized) under
    /// [`NoiseKernel::Vectorized`]. For benchmarks and test oracles
    /// that compare the two transforms; no sampling path calls it.
    fn sample_into_kernel(&self, rng: &mut DpRng, out: &mut [f64], kernel: NoiseKernel) {
        match kernel {
            NoiseKernel::Reference => self.sample_into(rng, out),
            NoiseKernel::Vectorized => self.sample_into_vectorized(rng, out),
        }
    }
}
