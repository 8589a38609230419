//! Batched, auto-vectorizable elementary functions for the noise
//! kernels.
//!
//! The per-item cost of every simulation engine is dominated by the
//! `ln()` inside the Laplace / Gumbel / Exponential inverse-CDF
//! transforms. The libm `ln` is correctly rounded but scalar: one call
//! per draw, opaque to the auto-vectorizer. This module provides a
//! polynomial `ln` whose inner loop is written so LLVM can vectorize it
//! (no branches, no table lookups, no calls — only IEEE `+ − × ÷` on
//! lane-independent data), trading the last two ulps of accuracy for
//! several-fold throughput on batched fills.
//!
//! ## Algorithm
//!
//! The classic atanh-series reduction (fdlibm lineage):
//!
//! ```text
//! x = 2^k · m,  m ∈ [√2/2, √2)        (exponent-field extraction,
//!                                       one conditional halving)
//! s = (m − 1)/(m + 1),  z = s²         (|s| ≤ 0.1716, z ≤ 0.0295)
//! ln m = 2·atanh(s) = 2s·(1 + z/3 + z²/5 + … + z⁷/15)
//! ln x = k·LN2_HI + (ln m + k·LN2_LO)
//! ```
//!
//! `LN2_HI` has 21 trailing zero bits, so `k·LN2_HI` is exact for every
//! exponent a finite `f64` can have; `LN2_LO` restores the discarded
//! low bits of `ln 2`. Truncating the odd series after `z⁷` leaves a
//! relative truncation error below `z⁸/17 ≈ 3.3·10⁻¹⁴`; together with
//! rounding, the **relative error is bounded by 1e-12** over the whole
//! positive range (subnormals included — they are rescaled by `2⁵⁴`
//! first), which the proptest matrix pins against the libm `ln`. In
//! practice the observed error is a few ulps (≲ 1e-15).
//!
//! ## Determinism
//!
//! Every operation is a plain IEEE-754 double operation in a fixed
//! order — no FMA contraction (`mul_add` is never used), no
//! platform-dependent libm call, no lookup table. Rust guarantees
//! strict IEEE semantics for `+ − × ÷`, so the result for a given input
//! is bit-identical on every platform, at every optimization level, and
//! under any vector width the compiler picks: vectorization reorders
//! *lanes*, never the operations within one. That is what lets the
//! vectorized Laplace and Exponential fills behind every
//! [`NoiseBuffer`](crate::NoiseBuffer) refill promise cross-platform,
//! cross-thread-count reproducibility.
//!
//! Each output element depends only on its own input element (the
//! 8-wide chunking below is purely a dispatch granularity: both the
//! fast chunk body and the scalar fallback compute the identical
//! per-value function), so results are independent of how a buffer is
//! split into batches — pinned by the chunk-boundary proptest.

/// Dispatch width of the batched loops: per 8-element chunk the fills
/// check that every lane is a positive *normal* float and then run the
/// branch-free core, which LLVM unrolls/vectorizes. Non-finite, zero,
/// negative, and subnormal lanes fall back to the total scalar path
/// (same per-value results, handled edge cases).
pub const LANES: usize = 8;

/// High part of `ln 2` (≈ 0.693147180369): 21 trailing zero mantissa
/// bits make `k·LN2_HI` exact for any `f64` exponent `k`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
/// Low part of `ln 2` (≈ 1.9082149293e-10): `LN2_HI + LN2_LO` is
/// `ln 2` to ~107 bits.
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// `2⁵⁴`, the subnormal rescale factor (exact).
const TWO_54: f64 = 18_014_398_509_481_984.0;

const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// Is `x` eligible for the branch-free core? Positive normal finite —
/// the comparison is false for NaN, `±0`, negatives, subnormals and
/// `+∞`, exactly the inputs that need special handling.
#[inline(always)]
fn is_core(x: f64) -> bool {
    (f64::MIN_POSITIVE..=f64::MAX).contains(&x)
}

/// The branch-free core: natural log of a positive normal `x`.
/// `e_adjust` shifts the extracted exponent (used by the subnormal
/// rescale); pass 0 for normal inputs.
#[inline(always)]
fn ln_core(x: f64, e_adjust: i64) -> f64 {
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023 + e_adjust;
    let mut m = f64::from_bits((bits & MANT_MASK) | ONE_BITS);
    // Reduce m from [1, 2) to [√2/2, √2) so |ln m| ≤ ½·ln 2 — both
    // arms are selects, not branches.
    let high = m > std::f64::consts::SQRT_2;
    m = if high { 0.5 * m } else { m };
    e += high as i64;
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    // Odd atanh series in Horner form; coefficients 2/(2i+1).
    let poly = 2.0 / 3.0
        + z * (2.0 / 5.0
            + z * (2.0 / 7.0
                + z * (2.0 / 9.0 + z * (2.0 / 11.0 + z * (2.0 / 13.0 + z * (2.0 / 15.0))))));
    let ln_m = 2.0 * s + s * z * poly;
    let k = e as f64;
    k * LN2_HI + (ln_m + k * LN2_LO)
}

/// Natural logarithm, scalar entry point. Identical per-value results
/// to the batched fills (they dispatch to the same core), with the
/// full IEEE edge-case surface:
///
/// * `ln(+∞) = +∞`, `ln(NaN) = NaN`
/// * `ln(±0) = −∞`, `ln(x<0) = NaN`
/// * subnormal `x` is rescaled by `2⁵⁴` and the exponent re-based,
///   so the deep range loses no accuracy.
#[inline]
pub fn ln(x: f64) -> f64 {
    if is_core(x) {
        ln_core(x, 0)
    } else if x > 0.0 {
        if x == f64::INFINITY {
            f64::INFINITY
        } else {
            // Positive subnormal: rescale into the normal range.
            ln_core(x * TWO_54, -54)
        }
    } else if x == 0.0 {
        f64::NEG_INFINITY
    } else {
        // Negative or NaN.
        f64::NAN
    }
}

/// `ln(1 + x)` without cancellation for small `|x|`, via the
/// high-precision correction trick: with `w = fl(1 + x)`,
/// `ln(1+x) ≈ ln(w) · (x / (w − 1))` — the factor cancels the rounding
/// committed by `1 + x` to first order. For `w == 1` (i.e. `|x|`
/// below half an ulp of 1) the answer is `x` itself.
///
/// Matches the accuracy contract of [`ln`]; used by the vectorized
/// one-sided exponential transform where the reference path calls the
/// libm `ln_1p`.
#[inline]
pub fn ln_1p(x: f64) -> f64 {
    let w = 1.0 + x;
    if w == 1.0 {
        // |x| < 2⁻⁵³ (or x == 0): ln(1+x) = x to double precision.
        x
    } else {
        ln(w) * (x / (w - 1.0))
    }
}

/// Fills `out[i] = ln(xs[i])` for every `i`.
///
/// Results are a pure per-element function of the input — bit-identical
/// to calling [`ln`] element-wise, and therefore independent of chunk
/// boundaries, buffer length, or how a larger fill was split.
///
/// # Panics
/// If the slices differ in length.
pub fn ln_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "ln_into: length mismatch");
    let mut x_chunks = xs.chunks_exact(LANES);
    let mut o_chunks = out.chunks_exact_mut(LANES);
    for (xc, oc) in (&mut x_chunks).zip(&mut o_chunks) {
        if xc.iter().all(|&x| is_core(x)) {
            for j in 0..LANES {
                oc[j] = ln_core(xc[j], 0);
            }
        } else {
            for j in 0..LANES {
                oc[j] = ln(xc[j]);
            }
        }
    }
    for (x, o) in x_chunks
        .remainder()
        .iter()
        .zip(o_chunks.into_remainder().iter_mut())
    {
        *o = ln(*x);
    }
}

/// In-place variant of [`ln_into`]: `buf[i] = ln(buf[i])`.
pub fn ln_in_place(buf: &mut [f64]) {
    let mut chunks = buf.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        if chunk.iter().all(|&x| is_core(x)) {
            for x in chunk.iter_mut() {
                *x = ln_core(*x, 0);
            }
        } else {
            for x in chunk.iter_mut() {
                *x = ln(*x);
            }
        }
    }
    for x in chunks.into_remainder() {
        *x = ln(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented relative-error bound.
    const REL_BOUND: f64 = 1e-12;

    fn rel_err(fast: f64, exact: f64) -> f64 {
        if exact == 0.0 {
            fast.abs()
        } else {
            ((fast - exact) / exact).abs()
        }
    }

    #[test]
    fn split_ln2_constants_have_the_pinned_bit_patterns() {
        // The exactness argument for k·LN2_HI depends on these exact
        // bits (21 trailing zeros in the HI mantissa).
        assert_eq!(LN2_HI.to_bits(), 0x3FE6_2E42_FEE0_0000);
        assert_eq!(LN2_LO.to_bits(), 0x3DEA_39EF_3579_3C76);
        assert_eq!(
            (LN2_HI + LN2_LO).to_bits(),
            std::f64::consts::LN_2.to_bits()
        );
    }

    #[test]
    fn matches_libm_within_bound_at_fixed_points() {
        for &x in &[
            1e-300,
            2.2e-308,
            1e-10,
            0.1,
            0.5,
            std::f64::consts::FRAC_1_SQRT_2,
            0.99999999,
            1.0,
            1.00000001,
            1.5,
            2.0,
            std::f64::consts::E,
            10.0,
            1e5,
            1e10,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let fast = ln(x);
            let exact = x.ln();
            assert!(
                rel_err(fast, exact) <= REL_BOUND,
                "x={x:e}: fast={fast:e} libm={exact:e}"
            );
        }
        assert_eq!(ln(1.0), 0.0);
    }

    #[test]
    fn edge_cases_match_ieee() {
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert!(ln(f64::NEG_INFINITY).is_nan());
        assert!(ln(f64::NAN).is_nan());
        // Smallest subnormal: rescale path, still within bound.
        let tiny = f64::from_bits(1);
        assert!(
            rel_err(ln(tiny), tiny.ln()) <= REL_BOUND,
            "ln(min subnormal)"
        );
    }

    #[test]
    fn ln_1p_is_accurate_for_tiny_and_moderate_arguments() {
        for &x in &[
            -0.999999, -0.5, -1e-8, -1e-17, -2.5e-300, 0.0, 3.0e-300, 1e-17, 1e-8, 0.5, 3.0,
        ] {
            let fast = ln_1p(x);
            let exact = x.ln_1p();
            assert!(
                rel_err(fast, exact) <= REL_BOUND,
                "x={x:e}: fast={fast:e} libm={exact:e}"
            );
        }
        // x = −1 → ln 0 = −∞; below → NaN.
        assert_eq!(ln_1p(-1.0), f64::NEG_INFINITY);
        assert!(ln_1p(-1.5).is_nan());
    }

    #[test]
    fn batched_fill_handles_mixed_special_chunks() {
        // A chunk holding specials takes the fallback lane-by-lane but
        // must still produce the identical per-value results.
        let xs = [
            1.0,
            0.0,
            -3.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(7), // subnormal
            2.5,
            1e-320,
            0.3,
            9.9,
        ];
        let mut out = [0.0; 10];
        ln_into(&xs, &mut out);
        for (i, (&x, &o)) in xs.iter().zip(out.iter()).enumerate() {
            let want = ln(x);
            assert!(
                o.to_bits() == want.to_bits(),
                "lane {i}: batched {o:?} != scalar {want:?}"
            );
        }
    }

    #[test]
    fn in_place_matches_out_of_place() {
        let xs: Vec<f64> = (1..200).map(|i| i as f64 * 0.37).collect();
        let mut a = vec![0.0; xs.len()];
        ln_into(&xs, &mut a);
        let mut b = xs.clone();
        ln_in_place(&mut b);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ln_into_rejects_mismatched_lengths() {
        let mut out = [0.0; 3];
        ln_into(&[1.0, 2.0], &mut out);
    }
}
