//! SIMD-friendly inner kernels shared by every execution backend.
//!
//! The interpreted backends ([`super::semantics::execute_instr`]) and the
//! lowered backend ([`crate::engine::lowered`]) both route their mat-vec,
//! transposed mat-vec and outer-product hot loops through these functions.
//! Sharing the exact loop bodies is what makes the backends bit-identical:
//! f32 addition is not associative, so two different reduction orders would
//! produce different losses. Every kernel here has one fixed, deterministic
//! association — [`LANES`] independent accumulators, a fixed pairwise
//! reduction tree at the end and a sequential scalar tail — and one fixed
//! arithmetic: a rounded multiply followed by a rounded add, never fused.
//!
//! The interpreter runs one [`dot`] / [`axpy`] per chunk row, plain loops
//! that LLVM autovectorizes. The lowered sweep runs whole chunk ops through
//! the *register-blocked* forms ([`matvec_block`], [`tmatvec_contrib`],
//! [`outer_block`]), which keep more in registers between loads — a chunk row
//! against several operands, a tile of the contribution across all rows, a
//! tile of a gradient row across several operands — while every output
//! element still receives exactly the per-row kernels' operations in exactly
//! their order, so the two forms agree to the bit.
//!
//! The blocked forms are explicit SIMD in *tiers* (`Lanes`): 256-bit AVX
//! registers where the host's CPUID reports them ([`tier`]), two 128-bit
//! SSE2 registers on any other x86-64 host, a plain array elsewhere. Each
//! entry point picks once per call. Register width is free; lane count,
//! association and the two roundings are not, so the tiers agree with each
//! other and with the per-row loops to the bit, on any host and under any
//! build flags — the proptests below hold every tier the host can run to
//! that, NaN, infinities and signed zeros included.

/// Number of independent accumulator lanes in the chunked reduction.
///
/// Eight f32 lanes are one AVX register or two SSE2 registers. The value is
/// part of the numerical contract (it fixes the association of [`dot`]), so
/// it is the same on every tier and must never depend on the host CPU.
pub const LANES: usize = 8;

/// Dot product with a fixed chunked association.
///
/// Accumulates `a[i] * b[i]` into `LANES` independent partial sums
/// (`acc[l] += a[8k + l] * b[8k + l]`), reduces them with a fixed pairwise
/// tree, then folds the scalar tail in order. The association is fully
/// determined by the input length — never by the host — so every backend
/// computes bit-identical results.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; LANES];
    let chunks = n / LANES;
    for k in 0..chunks {
        let (va, vb) = (
            &a[k * LANES..(k + 1) * LANES],
            &b[k * LANES..(k + 1) * LANES],
        );
        for l in 0..LANES {
            acc[l] += va[l] * vb[l];
        }
    }
    let mut sum = lane_tree(&acc);
    for i in chunks * LANES..n {
        sum += a[i] * b[i];
    }
    sum
}

/// The fixed pairwise reduction of a dot product's lanes:
/// `((0+4)+(2+6)) + ((1+5)+(3+7))`.
#[inline(always)]
fn lane_tree(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// `acc[i] += s * x[i]` over the common prefix.
///
/// Purely element-wise (no reduction), so the result is association-free and
/// LLVM vectorizes the loop directly.
#[inline]
pub fn axpy(acc: &mut [f32], s: f32, x: &[f32]) {
    for (a, v) in acc.iter_mut().zip(x) {
        *a += s * *v;
    }
}

/// `acc[i] += x[i]` over the common prefix (element-wise, association-free).
#[inline]
pub fn add_assign(acc: &mut [f32], x: &[f32]) {
    for (a, v) in acc.iter_mut().zip(x) {
        *a += *v;
    }
}

/// [`LANES`] f32 values held in SIMD registers — what the register-blocked
/// kernels accumulate in, one implementation per instruction-set *tier*.
///
/// The blocked loops are written against this trait rather than left to the
/// autovectorizer: with several accumulator sets live, LLVM's SLP pass
/// vectorizes *across* operands (transposing every accumulator inside the
/// main loop) or scalarizes, depending on inlining context — measured 0.3x to
/// 2.1x of the per-row loop for the same source.
///
/// A tier chooses the register *width* and nothing else. Every tier holds the
/// same [`LANES`] lanes, and `mul_acc` is a lane-wise IEEE multiply, rounded,
/// followed by a lane-wise add, rounded — never a fused multiply-add, whose
/// single rounding would diverge from [`dot`] / [`axpy`] and so from the
/// interpreter. The tiers therefore agree with each other and with the
/// scalar kernels to the bit, and which one runs is not observable in any
/// result.
///
/// The methods are safe to call only where the tier's instructions exist:
/// `Portable` and `Sse2` wherever they compile, `Avx` only after
/// `is_x86_feature_detected!("avx")`. The trait, the tiers and every generic
/// body over them are private to this module so that each instantiation is
/// here to audit: the baseline tier in the three public entry points, `Avx`
/// in the three `*_avx` wrappers they dispatch to.
///
/// Every function between an `*_avx` wrapper and the intrinsics is
/// `#[inline(always)]`: an `__m256` that crossed a call out of the
/// `#[target_feature]` function would be passed through memory.
trait Lanes: Copy {
    fn zero() -> Self;
    fn splat(s: f32) -> Self;
    fn load(v: &[f32; LANES]) -> Self;
    fn store(self, out: &mut [f32; LANES]);
    /// `self + a * b` per lane: product rounded, then sum rounded.
    fn mul_acc(self, a: Self, b: Self) -> Self;
}

/// A plain array, one scalar multiply and add per lane: the only tier off
/// x86-64, and the reference the tests hold the others to everywhere.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[derive(Clone, Copy)]
struct Portable([f32; LANES]);

#[cfg(any(test, not(target_arch = "x86_64")))]
impl Lanes for Portable {
    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; LANES])
    }

    #[inline(always)]
    fn splat(s: f32) -> Self {
        Self([s; LANES])
    }

    #[inline(always)]
    fn load(v: &[f32; LANES]) -> Self {
        Self(*v)
    }

    #[inline(always)]
    fn store(self, out: &mut [f32; LANES]) {
        *out = self.0;
    }

    #[inline(always)]
    fn mul_acc(mut self, a: Self, b: Self) -> Self {
        for l in 0..LANES {
            self.0[l] += a.0[l] * b.0[l];
        }
        self
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128, __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps,
        _mm_setzero_ps, _mm_storeu_ps,
    };

    use super::{Lanes, LANES};

    /// Two 128-bit registers: SSE2 is part of the x86-64 baseline, so this
    /// tier needs no detection and is the one a host without AVX runs.
    #[derive(Clone, Copy)]
    pub(super) struct Sse2(__m128, __m128);

    impl Lanes for Sse2 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            unsafe { Self(_mm_setzero_ps(), _mm_setzero_ps()) }
        }

        #[inline(always)]
        fn splat(s: f32) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            unsafe { Self(_mm_set1_ps(s), _mm_set1_ps(s)) }
        }

        #[inline(always)]
        fn load(v: &[f32; LANES]) -> Self {
            // SAFETY: SSE2 is always available on x86-64; both unaligned
            // loads read four floats inside the eight `v` borrows.
            unsafe { Self(_mm_loadu_ps(v.as_ptr()), _mm_loadu_ps(v.as_ptr().add(4))) }
        }

        #[inline(always)]
        fn store(self, out: &mut [f32; LANES]) {
            // SAFETY: SSE2 is always available on x86-64; both unaligned
            // stores write four floats inside the eight `out` borrows.
            unsafe {
                _mm_storeu_ps(out.as_mut_ptr(), self.0);
                _mm_storeu_ps(out.as_mut_ptr().add(4), self.1);
            }
        }

        #[inline(always)]
        fn mul_acc(self, a: Self, b: Self) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            unsafe {
                Self(
                    _mm_add_ps(self.0, _mm_mul_ps(a.0, b.0)),
                    _mm_add_ps(self.1, _mm_mul_ps(a.1, b.1)),
                )
            }
        }
    }

    /// One 256-bit register. Instantiated only behind a passed
    /// `is_x86_feature_detected!("avx")` (see [`Lanes`]), which is what every
    /// `SAFETY` comment below relies on.
    #[derive(Clone, Copy)]
    pub(super) struct Avx(__m256);

    impl Lanes for Avx {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: the host has AVX.
            unsafe { Self(_mm256_setzero_ps()) }
        }

        #[inline(always)]
        fn splat(s: f32) -> Self {
            // SAFETY: the host has AVX.
            unsafe { Self(_mm256_set1_ps(s)) }
        }

        #[inline(always)]
        fn load(v: &[f32; LANES]) -> Self {
            // SAFETY: the host has AVX; the unaligned load reads exactly the
            // eight floats `v` borrows.
            unsafe { Self(_mm256_loadu_ps(v.as_ptr())) }
        }

        #[inline(always)]
        fn store(self, out: &mut [f32; LANES]) {
            // SAFETY: the host has AVX; the unaligned store writes exactly
            // the eight floats `out` borrows.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn mul_acc(self, a: Self, b: Self) -> Self {
            // SAFETY: the host has AVX. Two intrinsics, two roundings: an
            // `fmadd` here would break bit identity with `dot` / `axpy`.
            unsafe { Self(_mm256_add_ps(self.0, _mm256_mul_ps(a.0, b.0))) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{Avx, Sse2 as Baseline};
#[cfg(not(target_arch = "x86_64"))]
use Portable as Baseline;

/// The tier the blocked kernels run on this host: `"avx"` where CPUID reports
/// it, else `"sse2"` on x86-64, `"portable"` on every other architecture.
/// Chosen by the host alone — there is no option, flag or build setting — and
/// never visible in a result (the private `Lanes` trait says why); exported so
/// that a timing can name what it measured.
pub fn tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            "avx"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

/// `K` dot products of one chunk row: `out[j]` is [`dot`]`(row, xs[j])` bit
/// for bit, for operands of one common length.
///
/// Each `(row, operand)` pair keeps `dot`'s association — its own [`LANES`]
/// accumulators, the same tree, the same in-order tail. The row is loaded
/// once per `K` multiply-adds and the `K` accumulators are independent
/// dependency chains, where `dot` alone has two loads per multiply-add and
/// one chain per SIMD register.
#[inline(always)]
fn dot_block<L: Lanes, const K: usize>(row: &[f32], xs: [&[f32]; K]) -> [f32; K] {
    let n = row.len().min(xs[0].len());
    let (row, row_tail) = row[..n].as_chunks::<LANES>();
    let xs = xs.map(|x| x[..n].as_chunks::<LANES>());
    let mut acc = [L::zero(); K];
    for (k, r) in row.iter().enumerate() {
        let r = L::load(r);
        for (a, (x, _)) in acc.iter_mut().zip(&xs) {
            *a = a.mul_acc(r, L::load(&x[k]));
        }
    }
    let mut out = [0.0f32; K];
    for ((o, a), (_, x_tail)) in out.iter_mut().zip(acc).zip(xs) {
        let mut lanes = [0.0f32; LANES];
        a.store(&mut lanes);
        *o = lane_tree(&lanes);
        for (r, v) in row_tail.iter().zip(x_tail) {
            *o += r * v;
        }
    }
    out
}

/// Most operands one blocked kernel call takes: with [`LANES`] lanes each,
/// four accumulators are half the register file on the SSE2 tier. The AVX
/// tier would have room for eight, but eight measured slower there
/// (DESIGN.md §8), so the value is the same on every tier.
pub const MAX_BLOCK: usize = 4;

#[inline(always)]
fn matvec_sweep<L: Lanes, const K: usize>(
    chunk: &[f32],
    cols: usize,
    xs: &[&[f32]],
    ys: &mut [&mut [f32]],
) {
    let xs: [&[f32]; K] = xs.try_into().expect("dispatched on the operand count");
    for (r, row) in chunk.chunks_exact(cols).enumerate() {
        for (y, o) in ys.iter_mut().zip(dot_block::<L, K>(row, xs)) {
            y[r] = o;
        }
    }
}

/// [`matvec_block`] past its asserts, on tier `L`.
#[inline(always)]
fn matvec_body<L: Lanes>(chunk: &[f32], cols: usize, xs: &[&[f32]], ys: &mut [&mut [f32]]) {
    match xs.len() {
        1 => matvec_sweep::<L, 1>(chunk, cols, xs, ys),
        2 => matvec_sweep::<L, 2>(chunk, cols, xs, ys),
        3 => matvec_sweep::<L, 3>(chunk, cols, xs, ys),
        MAX_BLOCK => matvec_sweep::<L, MAX_BLOCK>(chunk, cols, xs, ys),
        n => panic!("a block holds 1..={MAX_BLOCK} operands, not {n}"),
    }
}

/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn matvec_block_avx(chunk: &[f32], cols: usize, xs: &[&[f32]], ys: &mut [&mut [f32]]) {
    matvec_body::<Avx>(chunk, cols, xs, ys);
}

/// Mat-vecs of up to [`MAX_BLOCK`] operands against one register chunk:
/// `ys[j][r] = dot(row_r, xs[j])` for every `cols`-wide row of `chunk`,
/// bit-identical to one sweep of [`dot`] per operand and reading each row
/// once for all of them.
///
/// # Panics
///
/// Panics unless there are `1..=MAX_BLOCK` operands of one length, with one
/// output each.
pub fn matvec_block(chunk: &[f32], cols: usize, xs: &[&[f32]], ys: &mut [&mut [f32]]) {
    assert_eq!(xs.len(), ys.len(), "one output per operand");
    assert!(
        xs.iter().all(|x| x.len() == xs[0].len()),
        "blocked mat-vec operands must have one length"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX was just detected.
        return unsafe { matvec_block_avx(chunk, cols, xs, ys) };
    }
    matvec_body::<Baseline>(chunk, cols, xs, ys);
}

/// Accumulator registers a tile of [`tmatvec_contrib`] / [`outer_block`]
/// holds: four [`Lanes`] are eight of the sixteen registers on the SSE2 tier
/// — the most that leaves room for the operands — and four on the AVX tier,
/// where wider tiles measured no faster (DESIGN.md §8).
const TILE_LANES: usize = 4;
/// Columns per tile.
const TILE: usize = TILE_LANES * LANES;

/// `acc += s * x` over one tile.
#[inline(always)]
fn tile_axpy<L: Lanes>(acc: &mut [L; TILE_LANES], s: f32, x: &[f32]) {
    let s = L::splat(s);
    let (x, _) = x.as_chunks::<LANES>();
    for (a, v) in acc.iter_mut().zip(x) {
        *a = a.mul_acc(s, L::load(v));
    }
}

#[inline(always)]
fn tile_store<L: Lanes>(acc: [L; TILE_LANES], out: &mut [f32]) {
    let (out, _) = out.as_chunks_mut::<LANES>();
    for (a, o) in acc.into_iter().zip(out) {
        a.store(o);
    }
}

/// [`tmatvec_contrib`] on tier `L`.
#[inline(always)]
fn tmatvec_body<L: Lanes>(chunk: &[f32], cols: usize, dy: &[f32], contrib: &mut [f32]) {
    let n = contrib.len().min(cols);
    let (contrib, beyond) = contrib.split_at_mut(n);
    beyond.fill(0.0);
    let mut tiles = contrib.chunks_exact_mut(TILE);
    let mut c0 = 0;
    for tile in &mut tiles {
        let mut acc = [L::zero(); TILE_LANES];
        for (&s, row) in dy.iter().zip(chunk.chunks_exact(cols)) {
            if s != 0.0 {
                tile_axpy(&mut acc, s, &row[c0..c0 + TILE]);
            }
        }
        tile_store(acc, tile);
        c0 += TILE;
    }
    let rest = tiles.into_remainder();
    rest.fill(0.0);
    for (&s, row) in dy.iter().zip(chunk.chunks_exact(cols)) {
        if s != 0.0 {
            axpy(rest, s, &row[c0..n]);
        }
    }
}

/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn tmatvec_contrib_avx(chunk: &[f32], cols: usize, dy: &[f32], contrib: &mut [f32]) {
    tmatvec_body::<Avx>(chunk, cols, dy, contrib);
}

/// Transposed mat-vec contribution of one register chunk:
/// `contrib[c] = Σ_r dy[r] * row_r[c]`, rows in order and rows whose `dy[r]`
/// is zero skipped — bit-identical to zero-filling `contrib` and running one
/// [`axpy`] per non-zero row, but a 32-column slice of `contrib` stays
/// in registers across all rows instead of being loaded and stored per row.
/// Columns past the chunk's width are zeroed.
pub fn tmatvec_contrib(chunk: &[f32], cols: usize, dy: &[f32], contrib: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX was just detected.
        return unsafe { tmatvec_contrib_avx(chunk, cols, dy, contrib) };
    }
    tmatvec_body::<Baseline>(chunk, cols, dy, contrib);
}

#[inline(always)]
fn outer_sweep<L: Lanes, const K: usize>(
    chunk: &mut [f32],
    cols: usize,
    xs: &[&[f32]],
    dys: &[&[f32]],
) {
    let xs: [&[f32]; K] = xs.try_into().expect("dispatched on the pair count");
    let dys: [&[f32]; K] = dys.try_into().expect("one dy per x");
    let n = xs[0].len().min(cols);
    for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
        let s = dys.map(|dy| dy[r]);
        let mut tiles = row[..n].chunks_exact_mut(TILE);
        let mut c0 = 0;
        for tile in &mut tiles {
            let (lanes, _) = tile.as_chunks::<LANES>();
            let mut acc: [L; TILE_LANES] = std::array::from_fn(|l| L::load(&lanes[l]));
            for (&s, x) in s.iter().zip(&xs) {
                if s != 0.0 {
                    tile_axpy(&mut acc, s, &x[c0..c0 + TILE]);
                }
            }
            tile_store(acc, tile);
            c0 += TILE;
        }
        let rest = tiles.into_remainder();
        for (&s, x) in s.iter().zip(&xs) {
            if s != 0.0 {
                axpy(rest, s, &x[c0..n]);
            }
        }
    }
}

/// [`outer_block`] past its asserts, on tier `L`.
#[inline(always)]
fn outer_body<L: Lanes>(chunk: &mut [f32], cols: usize, xs: &[&[f32]], dys: &[&[f32]]) {
    match xs.len() {
        1 => outer_sweep::<L, 1>(chunk, cols, xs, dys),
        2 => outer_sweep::<L, 2>(chunk, cols, xs, dys),
        3 => outer_sweep::<L, 3>(chunk, cols, xs, dys),
        MAX_BLOCK => outer_sweep::<L, MAX_BLOCK>(chunk, cols, xs, dys),
        n => panic!("a block holds 1..={MAX_BLOCK} pairs, not {n}"),
    }
}

/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn outer_block_avx(chunk: &mut [f32], cols: usize, xs: &[&[f32]], dys: &[&[f32]]) {
    outer_body::<Avx>(chunk, cols, xs, dys);
}

/// Outer-product accumulations of up to [`MAX_BLOCK`] operand pairs into one
/// gradient chunk: `row_r += dys[j][r] * xs[j]` for `j` in order, zero
/// `dys[j][r]` skipped — bit-identical to one sweep of [`axpy`] per pair
/// (every element receives the same adds in the same order), with a
/// 32-column slice of each gradient row held in registers across the
/// pairs.
///
/// # Panics
///
/// Panics unless there are `1..=MAX_BLOCK` pairs whose `xs` have one length.
pub fn outer_block(chunk: &mut [f32], cols: usize, xs: &[&[f32]], dys: &[&[f32]]) {
    assert_eq!(xs.len(), dys.len(), "one dy per x");
    assert!(
        xs.iter().all(|x| x.len() == xs[0].len()),
        "blocked outer-product operands must have one length"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX was just detected.
        return unsafe { outer_block_avx(chunk, cols, xs, dys) };
    }
    outer_body::<Baseline>(chunk, cols, xs, dys);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_reference_within_float_tolerance() {
        for n in [0, 1, 7, 8, 9, 16, 31, 64, 257] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            let want: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| f64::from(*x) * f64::from(*y))
                .sum();
            let got = f64::from(dot(&a, &b));
            assert!(
                (got - want).abs() < 1e-4 * (1.0 + want.abs()),
                "n={n}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn dot_is_deterministic_across_calls() {
        let a: Vec<f32> = (0..123).map(|i| (i as f32 * 0.77).sin()).collect();
        let b: Vec<f32> = (0..123).map(|i| (i as f32 * 0.23).cos()).collect();
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn axpy_and_add_assign_are_elementwise() {
        let mut acc = vec![1.0f32; 5];
        axpy(&mut acc, 2.0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(acc, vec![3.0, 5.0, 7.0, 9.0, 11.0]);
        add_assign(&mut acc, &[1.0; 5]);
        assert_eq!(acc, vec![4.0, 6.0, 8.0, 10.0, 12.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Ordinary values, with the ones a blocked kernel could get wrong mixed
    /// in at `special_in_256 / 256`: signed zeros (the zero-`dy` skip;
    /// `-0.0 + 0.0 * x` would flip a sign), infinities, and NaN — the NaN
    /// the hardware itself makes out of `inf - inf`, so that every NaN in
    /// play has one bit pattern and equality does not hinge on which
    /// operand's payload an add propagates.
    fn arb_value(special_in_256: u8) -> impl Strategy<Value = f32> {
        let nan = std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY);
        (any::<u8>(), 0u8..10, -2.0f32..2.0).prop_map(move |(dice, which, ordinary)| {
            if dice >= special_in_256 {
                return ordinary;
            }
            match which {
                0..=2 => 0.0,
                3..=5 => -0.0,
                6 => f32::INFINITY,
                7 => f32::NEG_INFINITY,
                _ => nan,
            }
        })
    }

    /// A chunk of up to 17 rows with `k` operand pairs (`x` of `len`, `dy`
    /// of `rows`) and a starting gradient chunk. `len` is the chunk width
    /// or a little off it; widths are mostly not multiples of [`LANES`] or
    /// [`TILE`]. Special values are rare in the matrices and `x` (one NaN
    /// swamps a whole row) and common in `dy`.
    #[derive(Debug)]
    struct Case {
        rows: usize,
        cols: usize,
        chunk: Vec<f32>,
        grad: Vec<f32>,
        xs: Vec<Vec<f32>>,
        dys: Vec<Vec<f32>>,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        const MAX_ROWS: usize = 17;
        const MAX_COLS: usize = 75;
        const MAX_K: usize = 9;
        (
            (1..=MAX_ROWS, 1..=MAX_COLS, 0usize..3, 1..=MAX_K),
            prop::collection::vec(
                arb_value(2),
                2 * MAX_ROWS * MAX_COLS + MAX_K * (MAX_COLS + 8),
            ),
            prop::collection::vec(arb_value(80), MAX_K * MAX_ROWS),
        )
            .prop_map(|((rows, cols, off_width, k), values, dy_values)| {
                let len = match off_width {
                    0 => cols,
                    1 => cols.saturating_sub(3).max(1),
                    _ => cols + 8,
                };
                let mut values = values.into_iter();
                let mut take = |n: usize| values.by_ref().take(n).collect::<Vec<f32>>();
                Case {
                    rows,
                    cols,
                    chunk: take(rows * cols),
                    grad: take(rows * cols),
                    xs: (0..k).map(|_| take(len)).collect(),
                    dys: dy_values
                        .chunks(rows)
                        .take(k)
                        .map(<[f32]>::to_vec)
                        .collect(),
                }
            })
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The three kernels on one tier, past the entry points' asserts — or
    /// the dispatching entry points themselves.
    struct Tier {
        name: &'static str,
        matvec: MatVecFn,
        tmatvec: fn(&[f32], usize, &[f32], &mut [f32]),
        outer: OuterFn,
    }
    type MatVecFn = fn(&[f32], usize, &[&[f32]], &mut [&mut [f32]]);
    type OuterFn = fn(&mut [f32], usize, &[&[f32]], &[&[f32]]);

    const PORTABLE: Tier = Tier {
        name: "portable",
        matvec: matvec_body::<Portable>,
        tmatvec: tmatvec_body::<Portable>,
        outer: outer_body::<Portable>,
    };

    /// Whichever tier this host dispatches to, through the public functions.
    const DISPATCH: Tier = Tier {
        name: "dispatch",
        matvec: matvec_block,
        tmatvec: tmatvec_contrib,
        outer: outer_block,
    };

    /// Every tier this host can run, narrowest first, so that the last one
    /// is the one [`tier`] names. `Avx` goes through the same `*_avx`
    /// wrappers the entry points dispatch to.
    fn tiers() -> Vec<Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![PORTABLE];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(Tier {
                name: "sse2",
                matvec: matvec_body::<x86::Sse2>,
                tmatvec: tmatvec_body::<x86::Sse2>,
                outer: outer_body::<x86::Sse2>,
            });
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY (all three): AVX was just detected.
                tiers.push(Tier {
                    name: "avx",
                    matvec: |c, n, xs, ys| unsafe { matvec_block_avx(c, n, xs, ys) },
                    tmatvec: |c, n, dy, out| unsafe { tmatvec_contrib_avx(c, n, dy, out) },
                    outer: |c, n, xs, dys| unsafe { outer_block_avx(c, n, xs, dys) },
                });
            } else {
                static SKIP: std::sync::Once = std::sync::Once::new();
                SKIP.call_once(|| eprintln!("skip: no AVX on this host, avx tier not tested"));
            }
        }
        tiers
    }

    /// `ys[j][r]` for every operand of the case, [`MAX_BLOCK`] per call.
    fn run_matvec(tier: &Tier, case: &Case) -> Vec<Vec<f32>> {
        let mut got = vec![vec![7.0f32; case.rows]; case.xs.len()];
        for (ys, xs) in got.chunks_mut(MAX_BLOCK).zip(case.xs.chunks(MAX_BLOCK)) {
            let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
            let mut ys: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
            (tier.matvec)(&case.chunk, case.cols, &xs, &mut ys);
        }
        got
    }

    /// One contribution per `(x, dy)` pair of the case, `x` giving its length.
    fn run_tmatvec(tier: &Tier, case: &Case) -> Vec<Vec<f32>> {
        let pairs = case.xs.iter().zip(&case.dys);
        pairs
            .map(|(x, dy)| {
                let mut got = vec![7.0f32; x.len()];
                (tier.tmatvec)(&case.chunk, case.cols, dy, &mut got);
                got
            })
            .collect()
    }

    /// The case's gradient chunk after all its pairs, [`MAX_BLOCK`] per call.
    fn run_outer(tier: &Tier, case: &Case) -> Vec<f32> {
        let mut got = case.grad.clone();
        for (xs, dys) in case.xs.chunks(MAX_BLOCK).zip(case.dys.chunks(MAX_BLOCK)) {
            let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
            let dys: Vec<&[f32]> = dys.iter().map(Vec::as_slice).collect();
            (tier.outer)(&mut got, case.cols, &xs, &dys);
        }
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On every tier, blocks of up to `MAX_BLOCK` operands ≡ one `dot`
        /// per (row, operand).
        #[test]
        fn matvec_block_equals_per_operand_dots(case in arb_case()) {
            let Case { rows, cols, chunk, xs, .. } = &case;
            let mut want = vec![vec![0.0f32; *rows]; xs.len()];
            for (y, x) in want.iter_mut().zip(xs) {
                for (o, row) in y.iter_mut().zip(chunk.chunks_exact(*cols)) {
                    *o = dot(row, x);
                }
            }
            for tier in tiers() {
                for (got, want) in run_matvec(&tier, &case).iter().zip(&want) {
                    prop_assert_eq!(bits(got), bits(want), "tier {}", tier.name);
                }
            }
        }

        /// On every tier, the register-tiled contribution ≡ zero-fill plus
        /// one `axpy` per non-zero `dy` row.
        #[test]
        fn tmatvec_contrib_equals_per_row_axpys(case in arb_case()) {
            let Case { cols, chunk, xs, dys, .. } = &case;
            let mut want = Vec::new();
            for (x, dy) in xs.iter().zip(dys) {
                let mut contrib = vec![0.0f32; x.len()];
                for (&s, row) in dy.iter().zip(chunk.chunks_exact(*cols)) {
                    if s == 0.0 {
                        continue;
                    }
                    axpy(&mut contrib, s, row);
                }
                want.push(contrib);
            }
            for tier in tiers() {
                for (got, want) in run_tmatvec(&tier, &case).iter().zip(&want) {
                    prop_assert_eq!(bits(got), bits(want), "tier {}", tier.name);
                }
            }
        }

        /// On every tier, blocks of up to `MAX_BLOCK` pairs, in order ≡ one
        /// sweep of `axpy`s per pair, in order.
        #[test]
        fn outer_block_equals_per_pair_axpys(case in arb_case()) {
            let Case { cols, grad, xs, dys, .. } = &case;
            let mut want = grad.clone();
            for (x, dy) in xs.iter().zip(dys) {
                for (&s, row) in dy.iter().zip(want.chunks_exact_mut(*cols)) {
                    if s == 0.0 {
                        continue;
                    }
                    axpy(row, s, x);
                }
            }
            for tier in tiers() {
                prop_assert_eq!(bits(&run_outer(&tier, &case)), bits(&want), "tier {}", tier.name);
            }
        }

        /// The public entry points ≡ the `Portable` tier, whichever tier this
        /// host makes them dispatch to.
        #[test]
        fn dispatch_equals_the_portable_tier(case in arb_case()) {
            for (got, want) in run_matvec(&DISPATCH, &case).iter().zip(&run_matvec(&PORTABLE, &case)) {
                prop_assert_eq!(bits(got), bits(want), "matvec on {}", tier());
            }
            for (got, want) in run_tmatvec(&DISPATCH, &case).iter().zip(&run_tmatvec(&PORTABLE, &case)) {
                prop_assert_eq!(bits(got), bits(want), "tmatvec on {}", tier());
            }
            prop_assert_eq!(
                bits(&run_outer(&DISPATCH, &case)),
                bits(&run_outer(&PORTABLE, &case)),
                "outer on {}",
                tier()
            );
        }
    }

    /// A zero `dy` entry — either sign — skips its row outright: a NaN or
    /// infinite weight behind it never reaches the output, and a `-0.0`
    /// gradient keeps its sign.
    #[test]
    fn zero_dy_rows_are_skipped_not_multiplied() {
        let cols = TILE + 3;
        let chunk: Vec<f32> = [f32::NAN, f32::INFINITY]
            .iter()
            .flat_map(|&w| vec![w; cols])
            .collect();
        let x = vec![f32::NAN; cols];
        for tier in tiers().into_iter().chain([DISPATCH]) {
            let mut contrib = vec![7.0f32; cols];
            (tier.tmatvec)(&chunk, cols, &[0.0, -0.0], &mut contrib);
            assert_eq!(bits(&contrib), bits(&vec![0.0; cols]), "{}", tier.name);

            let mut grad = vec![-0.0f32; 2 * cols];
            (tier.outer)(&mut grad, cols, &[&x, &x], &[&[0.0, -0.0], &[-0.0, 0.0]]);
            assert_eq!(bits(&grad), bits(&vec![-0.0; 2 * cols]), "{}", tier.name);
        }
    }

    /// [`tier`] names what CPUID reports, and it is the widest tier the
    /// properties above run.
    #[test]
    fn tier_names_what_the_host_dispatches_to() {
        #[cfg(target_arch = "x86_64")]
        {
            assert!(["avx", "sse2"].contains(&tier()));
            assert_eq!(tier() == "avx", std::arch::is_x86_feature_detected!("avx"));
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(tier(), "portable");
        assert_eq!(tiers().last().map(|t| t.name), Some(tier()));
    }

    #[test]
    #[should_panic(expected = "1..=4 operands")]
    fn matvec_block_rejects_an_oversized_block() {
        let x = [0.0f32; 4];
        let mut ys = [[0.0f32; 1]; MAX_BLOCK + 1];
        let mut ys: Vec<&mut [f32]> = ys.iter_mut().map(|y| &mut y[..]).collect();
        matvec_block(&x, 4, &[&x[..]; MAX_BLOCK + 1], &mut ys);
    }
}
