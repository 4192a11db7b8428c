//! The per-work-group cost draw behind [`crate::KernelSpec::vg_costs`].
//!
//! The reference is a scalar Box–Muller draw through libm (`exact_one`).
//! Evaluating it once per group dominated the cost of setting up a
//! measurement session, so draws run in batches of [`BATCH`]: the uniform
//! pairs come from the generator one after another, exactly as the scalar
//! loop consumes them, and `ln`/`cos` are then evaluated by branch-free
//! polynomials in one loop the compiler vectorises.
//!
//! The batch returns a cost only when it is provably the integer the
//! reference returns. A fast value `c` differs from the reference's
//! unrounded `base · max(0.05, factor)` by at most the bound derived below
//! (the clamp cannot widen a difference, since `max(·, 0.05)` moves no two
//! values further apart), so if no rounding tie `k + ½` lies within that
//! bound of `c` both round to the same integer. The rest are recomputed by
//! `exact_one`. The bound covers every rounding either side makes, fused or
//! not, so the vector width and whether the loop uses FMA change which draws
//! take the exact path, never a result.

use rand::rngs::StdRng;
use rand::Rng;
use std::f64::consts::{SQRT_2, TAU};

/// Draws per batch.
const BATCH: usize = 64;

/// Unit roundoff of `f64` (2⁻⁵³).
const U: f64 = f64::EPSILON / 2.0;

/// Largest `sqrt(-2 ln u1)` over the draw's domain `u1 >= 1e-12`
/// (`sqrt(2 · 27.63…) = 7.4339…`).
const Z_MAX: f64 = 7.5;

/// Relative error of [`ln_fast`] on `[1e-12, 1)`. The argument splits
/// exactly into `2^e · m` with `m` in `[√2/2, √2]`, and
/// `ln m = 2 atanh(s)`, `s = (m − 1)/(m + 1)`, `|s| <= 0.1716`. The series
/// stops after `s¹⁹/19`, a relative truncation error below
/// `s²⁰/21/(1 − s²) < 2.4e-17`. Forming `s` costs 2 roundings, the Horner
/// sum in `s²` and the products at most 4 more, and adding `e · ln 2`
/// (split into an exact high part and a low part) 2 more, relative to a
/// result at least `|ln m|` in size: below `9u` in all, bounded here by
/// `16u`.
const LN_REL_ERR: f64 = 16.0 * U;

/// Absolute error of [`cos_turns`] on `[0, 1)`. The turn is folded
/// exactly into `q` in `[0, ¼]`; `x = 2πq` costs 2 roundings (`|Δx| <= πu`).
/// The even Taylor series of `cos x` stops after `x²⁰/20!`, a truncation
/// error below `(π/2)²²/22! < 1.9e-17`. Horner in `x²` with rounded
/// coefficients adds at most `u · Σ (2j + 2)|c_j| (π/2)^{2j} < 9u`, and the
/// rounding of `x²` at most `(π/2) · 1.5u · π/2 < 4u`: below `17u` in all,
/// bounded here by `32u`.
const COS_ABS_ERR: f64 = 32.0 * U;

/// libm's `ln` and `cos` are within 1 ulp: `2u` relative for `ln`, `2u`
/// absolute for `cos` (whose values are at most 1). The reference's
/// argument `TAU * u2` carries 2 more roundings, `|Δ| <= 2π · 2u`, which
/// moves the cosine by at most as much.
const LIBM_LN_REL_ERR: f64 = 2.0 * U;
const LIBM_COS_ABS_ERR: f64 = 2.0 * U + 4.0 * std::f64::consts::PI * U;

/// Bound on `|z_fast − z_ref|`, both against the exact normal deviate
/// `sqrt(−2 ln u1) · cos(2π u2)`: each `sqrt(−2 ln)` is relatively off by
/// half its `ln` error plus the square root's rounding, each cosine by
/// its absolute error, and each side rounds the final product once.
const Z_ERR: f64 = Z_MAX
    * (LN_REL_ERR / 2.0 + U + LIBM_LN_REL_ERR / 2.0 + U + COS_ABS_ERR + LIBM_COS_ABS_ERR + 2.0 * U);

/// Headroom on the derived bound: second-order terms and slack in the
/// derivation. It widens the fallback window only (to ~1e-9 of a cost
/// unit at the bundled kernels' scale), never a result.
const MARGIN: f64 = 16.0;

/// Domain of the fast path: every fast cost stays below `2^45`, inside
/// the range of the `2^52` rounding below. Beyond it (or for a non-finite
/// or negative imbalance) every group takes the exact path.
const MAX_BASE_COST: u64 = 1 << 32;
const MAX_IMBALANCE: f64 = 1024.0;

/// `2^52`: adding it to a non-negative `x < 2^51` rounds `x` to the
/// nearest integer, and the sum's low mantissa bits are that integer.
const TWO52: f64 = 4_503_599_627_370_496.0;
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
const MANTISSA: u64 = (1 << 52) - 1;
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
/// `ln 2` split as in fdlibm: the high part's low 21 mantissa bits are
/// zero, so `e · LN2_HI` is exact for the `|e| <= 40` of this domain.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// The reference draw: today's scalar libm Box–Muller on one uniform pair.
fn exact_one(base_cost: u64, imbalance: f64, u1: f64, u2: f64) -> u64 {
    let z = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
    let factor = (1.0 + imbalance * z).max(0.05);
    (base_cost as f64 * factor).round().max(1.0) as u64
}

/// The next uniform pair, in the order every draw consumes the stream.
fn uniform_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1 = rng.random::<f64>().max(1e-12);
    let u2 = rng.random();
    (u1, u2)
}

/// Fill `out` with one draw per element from `rng` — what
/// [`crate::KernelSpec::fill_vg_costs`] does after seeding.
pub(crate) fn fill(base_cost: u64, imbalance: f64, rng: &mut StdRng, out: &mut [u64]) {
    let Some(fast) = FastDraw::new(base_cost, imbalance) else {
        for o in out {
            let (u1, u2) = uniform_pair(rng);
            *o = exact_one(base_cost, imbalance, u1, u2);
        }
        return;
    };
    let simd = Avx2Fma::detect();
    // Lanes past a short final chunk keep earlier (in-domain) inputs and
    // their results are dropped.
    let (mut u1, mut u2) = ([0.5; BATCH], [0.5; BATCH]);
    let mut costs = [0u64; BATCH];
    for chunk in out.chunks_mut(BATCH) {
        for (a, b) in u1.iter_mut().zip(&mut u2).take(chunk.len()) {
            (*a, *b) = uniform_pair(rng);
        }
        fast.batch(simd, &u1, &u2, &mut costs);
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = match costs[i] {
                0 => exact_one(base_cost, imbalance, u1[i], u2[i]),
                c => c,
            };
        }
    }
}

/// Proof that this CPU runs AVX2 and FMA code.
#[derive(Debug, Clone, Copy)]
struct Avx2Fma(());

impl Avx2Fma {
    #[cfg(target_arch = "x86_64")]
    fn detect() -> Option<Self> {
        (std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma"))
            .then_some(Avx2Fma(()))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn detect() -> Option<Self> {
        None
    }
}

/// A spec inside the fast path's domain, with its fallback window.
#[derive(Debug, Clone, Copy)]
struct FastDraw {
    base: f64,
    imbalance: f64,
    /// Half-width of the window around a rounding tie.
    guard: f64,
}

impl FastDraw {
    fn new(base_cost: u64, imbalance: f64) -> Option<Self> {
        if base_cost > MAX_BASE_COST || !(0.0..=MAX_IMBALANCE).contains(&imbalance) {
            return None;
        }
        let base = base_cost as f64;
        // `1 + imbalance·z` rounds twice on each side (once if fused), each
        // time by at most `u` of a value below `1 + imbalance·Z_MAX`; the
        // clamp moves no two factors further apart, and the cost's product
        // rounds once more on each side.
        let scale = 1.0 + imbalance * Z_MAX;
        let guard = base * MARGIN * (imbalance * Z_ERR + 6.0 * U * scale);
        Some(FastDraw {
            base,
            imbalance,
            guard,
        })
    }

    /// One batch of costs, 0 marking a draw the exact path must redo.
    fn batch(
        &self,
        simd: Option<Avx2Fma>,
        u1: &[f64; BATCH],
        u2: &[f64; BATCH],
        out: &mut [u64; BATCH],
    ) {
        #[cfg(target_arch = "x86_64")]
        if let Some(Avx2Fma(())) = simd {
            // SAFETY: an `Avx2Fma` exists only once `detect` found both
            // features `batch_avx2` is compiled for.
            return unsafe { batch_avx2(self, u1, u2, out) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        batch_portable(self, u1, u2, out)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn batch_avx2(k: &FastDraw, u1: &[f64; BATCH], u2: &[f64; BATCH], out: &mut [u64; BATCH]) {
    batch_body::<true>(k, u1, u2, out)
}

fn batch_portable(k: &FastDraw, u1: &[f64; BATCH], u2: &[f64; BATCH], out: &mut [u64; BATCH]) {
    batch_body::<false>(k, u1, u2, out)
}

#[inline(always)]
fn batch_body<const FMA: bool>(
    k: &FastDraw,
    u1: &[f64; BATCH],
    u2: &[f64; BATCH],
    out: &mut [u64; BATCH],
) {
    for ((o, &u1), &u2) in out.iter_mut().zip(u1).zip(u2) {
        let z = (-2.0 * ln_fast::<FMA>(u1)).sqrt() * cos_turns::<FMA>(u2);
        let factor = mad::<FMA>(k.imbalance, z, 1.0);
        let c = k.base * if factor > 0.05 { factor } else { 0.05 };
        // Round to nearest; away from a tie this is `round`.
        let n = (c + TWO52) - TWO52;
        let near_tie = 0.5 - (c - n).abs() <= k.guard;
        let n = if n > 1.0 { n } else { 1.0 };
        let cost = (n + TWO52).to_bits() - TWO52_BITS;
        *o = if near_tie { 0 } else { cost };
    }
}

/// `a · b + c`, fused when the caller is compiled for FMA.
#[inline(always)]
fn mad<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `ln x` for `x` in `[1e-12, 1)` (see [`LN_REL_ERR`]), without branches
/// or int↔float conversions.
#[inline(always)]
fn ln_fast<const FMA: bool>(x: f64) -> f64 {
    let bits = x.to_bits();
    // The biased exponent as a float: placed in the mantissa of 2^52.
    let biased = f64::from_bits((bits >> 52) | TWO52_BITS) - TWO52;
    let m = f64::from_bits((bits & MANTISSA) | ONE_BITS);
    let (m, e) = if m > SQRT_2 {
        (0.5 * m, biased - 1022.0)
    } else {
        (m, biased - 1023.0)
    };
    let s = (m - 1.0) / (m + 1.0);
    let y = s * s;
    let mut p = 1.0 / 19.0;
    for c in [
        1.0 / 17.0,
        1.0 / 15.0,
        1.0 / 13.0,
        1.0 / 11.0,
        1.0 / 9.0,
        1.0 / 7.0,
        1.0 / 5.0,
        1.0 / 3.0,
        1.0,
    ] {
        p = mad::<FMA>(p, y, c);
    }
    mad::<FMA>(e, LN2_HI, mad::<FMA>(e, LN2_LO, 2.0 * s * p))
}

/// `cos 2πt` for `t` in `[0, 1)` (see [`COS_ABS_ERR`]), without branches.
#[inline(always)]
fn cos_turns<const FMA: bool>(t: f64) -> f64 {
    // cos 2πt = −cos 2πq with q = |t − ½| in [0, ½], and
    // cos 2πq = −cos 2π(½ − q); both subtractions are exact.
    let q = (t - 0.5).abs();
    let upper = q > 0.25;
    let x = TAU * if upper { 0.5 - q } else { q };
    let y = x * x;
    let mut p = 1.0 / 2_432_902_008_176_640_000.0;
    for c in [
        -1.0 / 6_402_373_705_728_000.0,
        1.0 / 20_922_789_888_000.0,
        -1.0 / 87_178_291_200.0,
        1.0 / 479_001_600.0,
        -1.0 / 3_628_800.0,
        1.0 / 40_320.0,
        -1.0 / 720.0,
        1.0 / 24.0,
        -0.5,
        1.0,
    ] {
        p = mad::<FMA>(p, y, c);
    }
    if upper {
        p
    } else {
        -p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelSpec;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    /// The reference's unrounded, unclamped factor `1 + imbalance·z`.
    fn exact_factor(imbalance: f64, u1: f64, u2: f64) -> f64 {
        1.0 + imbalance * (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    }

    /// Resolve a batch the way `fill` does.
    fn resolve(
        spec: &KernelSpec,
        u1: &[f64; BATCH],
        u2: &[f64; BATCH],
        out: &[u64; BATCH],
    ) -> Vec<u64> {
        (0..BATCH)
            .map(|i| match out[i] {
                0 => exact_one(spec.base_cost, spec.imbalance, u1[i], u2[i]),
                c => c,
            })
            .collect()
    }

    /// Bisect `u2` in `[0, ½]` (where the factor falls monotonically) for
    /// the last `u2` whose factor is still above `target`.
    fn bisect_factor(imbalance: f64, u1: f64, target: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, 0.5f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if exact_factor(imbalance, u1, mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Uniform pairs whose reference `base·factor` lies within 1e-9 of a
    /// `.5` tie, or whose factor lies within 1e-9 of the 0.05 clamp.
    fn near_tie_inputs(spec: &KernelSpec, rng: &mut StdRng, n: usize) -> Vec<(f64, f64)> {
        let base = spec.base_cost as f64;
        let mut found = Vec::new();
        while found.len() < n {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let s = (-2.0 * u1.ln()).sqrt();
            let lo = base * (1.0 - spec.imbalance * s).max(0.05);
            let hi = base * (1.0 + spec.imbalance * s);
            // The factor to bisect for, and the tie it must land next to
            // (none: the clamp itself).
            let mut targets = Vec::new();
            if hi - lo > 1.0 {
                let tie = (lo + rng.random::<f64>() * (hi - lo - 1.0)).floor() + 0.5;
                targets.push((tie / base, Some(tie)));
            }
            if 1.0 - spec.imbalance * s < 0.05 {
                targets.push((0.05, None));
            }
            for (target, tie) in targets {
                let u2 = bisect_factor(spec.imbalance, u1, target);
                let f = exact_factor(spec.imbalance, u1, u2);
                let distance = match tie {
                    Some(tie) => (base * f - tie).abs(),
                    None => (f - 0.05).abs(),
                };
                if distance <= 1e-9 {
                    found.push((u1, u2));
                }
            }
        }
        found
    }

    fn batches(inputs: &[(f64, f64)]) -> impl Iterator<Item = ([f64; BATCH], [f64; BATCH])> + '_ {
        inputs.chunks(BATCH).map(|chunk| {
            let (mut u1, mut u2) = ([0.5; BATCH], [0.5; BATCH]);
            for (i, &(a, b)) in chunk.iter().enumerate() {
                (u1[i], u2[i]) = (a, b);
            }
            (u1, u2)
        })
    }

    /// The reference map: `exact_one` over the spec's uniform stream.
    fn reference(spec: &KernelSpec, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = spec.cost_rng(seed);
        (0..n)
            .map(|_| {
                let (u1, u2) = uniform_pair(&mut rng);
                exact_one(spec.base_cost, spec.imbalance, u1, u2)
            })
            .collect()
    }

    #[test]
    fn vg_costs_equal_the_exact_formula() {
        for spec in KernelSpec::all() {
            let n = spec.default_wgs as usize;
            for seed in 0..64 {
                assert!(
                    spec.vg_costs(n, seed) == reference(spec, n, seed),
                    "{} seed {seed}",
                    spec.name
                );
            }
            for n in [0, 1, 63, 64, 65] {
                assert_eq!(
                    spec.vg_costs(n, 9),
                    reference(spec, n, 9),
                    "{} n {n}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn out_of_domain_specs_match_the_formula() {
        let bfs = *KernelSpec::by_name("bfs").expect("bundled kernel");
        for (base_cost, imbalance) in [
            (900, 0.0),
            (900, -0.5),
            (900, f64::NAN),
            (900, f64::INFINITY),
            (900, 1e6),
            (u64::MAX, 0.8),
            (1 << 40, 0.3),
            (1 << 20, 0.9),
            (MAX_BASE_COST, MAX_IMBALANCE),
        ] {
            let spec = KernelSpec {
                base_cost,
                imbalance,
                ..bfs
            };
            assert_eq!(
                spec.vg_costs(300, 3),
                reference(&spec, 300, 3),
                "base {base_cost} imbalance {imbalance}"
            );
        }
    }

    #[test]
    fn fast_z_is_within_the_derived_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut inputs: Vec<(f64, f64)> = (0..200_000).map(|_| uniform_pair(&mut rng)).collect();
        // The smallest and largest `u1`, and the mantissa split at √2.
        let below = f64::from_bits(FRAC_1_SQRT_2.to_bits() - 1);
        let above = f64::from_bits(FRAC_1_SQRT_2.to_bits() + 1);
        let edges_u1 = [
            1e-12,
            0.25,
            0.5,
            below,
            FRAC_1_SQRT_2,
            above,
            1.0 - 1e-9,
            1.0 - U,
        ];
        // Quarter turns, where the fold changes branch, and the largest `u2`.
        let edges_u2 = [0.0, 0.125, 0.25 - U, 0.25, 0.5, 0.75, 0.75 + U, 1.0 - U];
        for &a in &edges_u1 {
            for &b in &edges_u2 {
                inputs.push((a, b));
            }
        }
        for (u1, u2) in inputs {
            let reference = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
            for z in [
                (-2.0 * ln_fast::<false>(u1)).sqrt() * cos_turns::<false>(u2),
                (-2.0 * ln_fast::<true>(u1)).sqrt() * cos_turns::<true>(u2),
            ] {
                assert!(
                    (z - reference).abs() <= Z_ERR,
                    "u1 {u1:e} u2 {u2:e}: |{z} - {reference}| > {Z_ERR:e}"
                );
            }
        }
    }

    #[test]
    fn avx2_and_portable_batches_agree() {
        let mut rng = StdRng::seed_from_u64(11);
        let simd = Avx2Fma::detect();
        if simd.is_none() {
            eprintln!("no AVX2+FMA on this CPU: checking the portable batch only");
        }
        let (mut random_fallbacks, mut random_draws) = (0, 0);
        for spec in KernelSpec::all() {
            let fast = FastDraw::new(spec.base_cost, spec.imbalance)
                .expect("bundled specs are in the domain");
            let random: Vec<(f64, f64)> = (0..4 * BATCH).map(|_| uniform_pair(&mut rng)).collect();
            let near = near_tie_inputs(spec, &mut rng, 2 * BATCH);
            for (is_random, inputs) in [(true, random), (false, near)] {
                for (u1, u2) in batches(&inputs) {
                    let expected: Vec<u64> = (0..BATCH)
                        .map(|i| exact_one(spec.base_cost, spec.imbalance, u1[i], u2[i]))
                        .collect();
                    let mut portable = [0; BATCH];
                    fast.batch(None, &u1, &u2, &mut portable);
                    assert_eq!(
                        resolve(spec, &u1, &u2, &portable),
                        expected,
                        "{} portable",
                        spec.name
                    );
                    if is_random {
                        random_fallbacks += portable.iter().filter(|&&c| c == 0).count();
                        random_draws += BATCH;
                    }
                    if simd.is_some() {
                        let mut vector = [0; BATCH];
                        fast.batch(simd, &u1, &u2, &mut vector);
                        assert_eq!(
                            resolve(spec, &u1, &u2, &vector),
                            expected,
                            "{} avx2",
                            spec.name
                        );
                    }
                }
            }
        }
        // Away from ties the fast path stands.
        assert!(
            random_fallbacks * 100 < random_draws,
            "{random_fallbacks} of {random_draws} random draws fell back"
        );
    }
}
