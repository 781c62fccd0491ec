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
//! [`outer_block`]), which keep more in registers between loads — a group
//! of chunk rows against several operands, a tile of the contribution
//! across all rows, a tile of a gradient row across several operands —
//! while every output element still receives exactly the per-row kernels'
//! operations in exactly their order, so the two forms agree to the bit.
//!
//! Both backends also compute tanh and sigmoid here ([`tanh_into`],
//! [`sigmoid_into`]): one fixed rational with its own roundings rather than
//! the host's libm, whose `tanhf` / `expf` differ between C libraries and
//! cost a call per element.
//!
//! The blocked forms and the activations are explicit SIMD in *tiers*
//! (`Lanes`): 256-bit AVX registers where the host's CPUID reports them
//! ([`tier`]), two 128-bit SSE2 registers on any other x86-64 host, a plain
//! array elsewhere. Each entry point picks once per call. Register width is
//! free; lane count, association and the roundings are not, so the tiers
//! agree with each other and with the per-row loops to the bit, on any host
//! and under any build flags — the proptests below hold every tier the host
//! can run to that, NaN, infinities and signed zeros included.

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
/// same [`LANES`] lanes, and every method is one lane-wise IEEE operation,
/// rounded: `mul_acc` is a multiply, rounded, then an add, rounded — never a
/// fused multiply-add, whose single rounding would diverge from [`dot`] /
/// [`axpy`] and so from the interpreter — and `min`, `max` and `lt_select`
/// follow the SSE rules on every tier, NaN and signed zeros included. The
/// tiers therefore agree with each other and with the scalar kernels to the
/// bit, and which one runs is not observable in any result.
///
/// The methods are safe to call only where the tier's instructions exist:
/// `Portable` and `Sse2` wherever they compile, `Avx` only after
/// `is_x86_feature_detected!("avx")`. The trait, the tiers and every generic
/// body over them are private to this module so that each instantiation is
/// here to audit: the baseline tier in the five public entry points, `Avx`
/// in the five `*_avx` wrappers they dispatch to.
///
/// Every function between an `*_avx` wrapper and the intrinsics is
/// `#[inline(always)]`: an `__m256` that crossed a call out of the
/// `#[target_feature]` function would be passed through memory.
trait Lanes: Copy {
    fn zero() -> Self;
    fn splat(s: f32) -> Self;
    fn load(v: &[f32; LANES]) -> Self;
    fn store(self, out: &mut [f32; LANES]);
    /// `self + b` per lane, rounded.
    fn add(self, b: Self) -> Self;
    /// `self * b` per lane, rounded.
    fn mul(self, b: Self) -> Self;
    /// `self / b` per lane, IEEE-rounded.
    fn div(self, b: Self) -> Self;
    /// `if self < b { self } else { b }` per lane: `minps`'s rule, which
    /// returns `b` when either is NaN or the two are equal (`±0.0`).
    fn min(self, b: Self) -> Self;
    /// `if self > b { self } else { b }` per lane: `maxps`'s rule.
    fn max(self, b: Self) -> Self;
    /// `if self < b { t } else { f }` per lane (`f` where either is NaN).
    fn lt_select(self, b: Self, t: Self, f: Self) -> Self;
    /// Lane `j` is [`lane_tree`] of `acc[j]`'s lanes: eight dot products'
    /// reductions in one, each add with `lane_tree`'s operands in
    /// `lane_tree`'s order.
    fn tree8(acc: [Self; LANES]) -> Self;

    /// `self + a * b` per lane: product rounded, then sum rounded.
    #[inline(always)]
    fn mul_acc(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }
}

/// A plain array, one scalar operation per lane: the only tier off x86-64,
/// and the reference the tests hold the others to everywhere.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[derive(Clone, Copy)]
struct Portable([f32; LANES]);

#[cfg(any(test, not(target_arch = "x86_64")))]
impl Portable {
    #[inline(always)]
    fn zip(self, b: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Self(std::array::from_fn(|l| f(self.0[l], b.0[l])))
    }
}

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
    fn add(self, b: Self) -> Self {
        self.zip(b, |a, b| a + b)
    }

    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        self.zip(b, |a, b| a * b)
    }

    #[inline(always)]
    fn div(self, b: Self) -> Self {
        self.zip(b, |a, b| a / b)
    }

    #[inline(always)]
    fn min(self, b: Self) -> Self {
        self.zip(b, |a, b| if a < b { a } else { b })
    }

    #[inline(always)]
    fn max(self, b: Self) -> Self {
        self.zip(b, |a, b| if a > b { a } else { b })
    }

    #[inline(always)]
    fn lt_select(self, b: Self, t: Self, f: Self) -> Self {
        Self(std::array::from_fn(|l| {
            if self.0[l] < b.0[l] {
                t.0[l]
            } else {
                f.0[l]
            }
        }))
    }

    #[inline(always)]
    fn tree8(acc: [Self; LANES]) -> Self {
        Self(acc.map(|a| lane_tree(&a.0)))
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128, __m256, _mm256_add_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_div_ps,
        _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_permute2f128_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm_add_ps,
        _mm_and_ps, _mm_andnot_ps, _mm_cmplt_ps, _mm_div_ps, _mm_loadu_ps, _mm_max_ps, _mm_min_ps,
        _mm_mul_ps, _mm_or_ps, _mm_set1_ps, _mm_setzero_ps, _mm_shuffle_ps, _mm_storeu_ps,
        _CMP_LT_OQ,
    };

    use super::{Lanes, LANES};

    /// `shuffle_ps` immediates, each picking two lanes of the first operand
    /// and the same two of the second per 128-bit half: with `PAIRS_0` and
    /// `PAIRS_1`, [`shuffle_sums`] makes `[x0+x2, x1+x3, y0+y2, y1+y3]`;
    /// with the `ADJACENT` pair, `[x0+x1, x2+x3, y0+y1, y2+y3]`.
    const PAIRS_0: i32 = 0b01_00_01_00;
    const PAIRS_1: i32 = 0b11_10_11_10;
    const ADJACENT_0: i32 = 0b10_00_10_00;
    const ADJACENT_1: i32 = 0b11_01_11_01;

    /// Two 128-bit registers: SSE2 is part of the x86-64 baseline, so this
    /// tier needs no detection and is the one a host without AVX runs.
    #[derive(Clone, Copy)]
    pub(super) struct Sse2(__m128, __m128);

    impl Sse2 {
        /// `op` on both halves.
        #[inline(always)]
        fn zip(self, b: Self, op: impl Fn(__m128, __m128) -> __m128) -> Self {
            Self(op(self.0, b.0), op(self.1, b.1))
        }
    }

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
        fn add(self, b: Self) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            self.zip(b, |a, b| unsafe { _mm_add_ps(a, b) })
        }

        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            self.zip(b, |a, b| unsafe { _mm_mul_ps(a, b) })
        }

        #[inline(always)]
        fn div(self, b: Self) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            self.zip(b, |a, b| unsafe { _mm_div_ps(a, b) })
        }

        #[inline(always)]
        fn min(self, b: Self) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            self.zip(b, |a, b| unsafe { _mm_min_ps(a, b) })
        }

        #[inline(always)]
        fn max(self, b: Self) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            self.zip(b, |a, b| unsafe { _mm_max_ps(a, b) })
        }

        #[inline(always)]
        fn lt_select(self, b: Self, t: Self, f: Self) -> Self {
            // No blend before SSE4.1: `(mask & t) | (!mask & f)`.
            // SAFETY: SSE2 is always available on x86-64.
            let pick = |a, b, t, f| unsafe {
                let mask = _mm_cmplt_ps(a, b);
                _mm_or_ps(_mm_and_ps(mask, t), _mm_andnot_ps(mask, f))
            };
            Self(pick(self.0, b.0, t.0, f.0), pick(self.1, b.1, t.1, f.1))
        }

        #[inline(always)]
        fn tree8(acc: [Self; LANES]) -> Self {
            // SAFETY: SSE2 is always available on x86-64.
            let h = acc.map(|a| unsafe { _mm_add_ps(a.0, a.1) });
            // `lane_tree` of four inputs, from their `[0+4, 1+5, 2+6, 3+7]`.
            let quad = |a, b, c, d| {
                let pairs = shuffle_sums::<PAIRS_0, PAIRS_1>;
                shuffle_sums::<ADJACENT_0, ADJACENT_1>(pairs(a, b), pairs(c, d))
            };
            Self(quad(h[0], h[1], h[2], h[3]), quad(h[4], h[5], h[6], h[7]))
        }
    }

    /// `shuffle_ps::<A>(x, y) + shuffle_ps::<B>(x, y)` on each 128-bit half.
    #[inline(always)]
    fn shuffle_sums<const A: i32, const B: i32>(x: __m128, y: __m128) -> __m128 {
        // SAFETY: SSE2 is always available on x86-64.
        unsafe { _mm_add_ps(_mm_shuffle_ps::<A>(x, y), _mm_shuffle_ps::<B>(x, y)) }
    }

    /// [`shuffle_sums`] on 256-bit registers.
    ///
    /// # Safety
    ///
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn shuffle_sums_256<const A: i32, const B: i32>(x: __m256, y: __m256) -> __m256 {
        // SAFETY: the caller guarantees AVX.
        unsafe { _mm256_add_ps(_mm256_shuffle_ps::<A>(x, y), _mm256_shuffle_ps::<B>(x, y)) }
    }

    /// `[x0+x4, x1+x5, x2+x6, x3+x7]` in the low half, the same of `y` in
    /// the high half.
    ///
    /// # Safety
    ///
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn fold_halves(x: __m256, y: __m256) -> __m256 {
        // SAFETY: the caller guarantees AVX.
        unsafe {
            let (lows, highs) = (
                _mm256_permute2f128_ps::<0x20>(x, y),
                _mm256_permute2f128_ps::<0x31>(x, y),
            );
            _mm256_add_ps(lows, highs)
        }
    }

    /// One 256-bit register. Instantiated only behind a passed
    /// `is_x86_feature_detected!("avx")` (see [`Lanes`]), which is what every
    /// `SAFETY` comment below relies on. One intrinsic per operation, so one
    /// rounding each: the `mul_acc` they make is never an `fmadd`.
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
        fn add(self, b: Self) -> Self {
            // SAFETY: the host has AVX.
            unsafe { Self(_mm256_add_ps(self.0, b.0)) }
        }

        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: the host has AVX.
            unsafe { Self(_mm256_mul_ps(self.0, b.0)) }
        }

        #[inline(always)]
        fn div(self, b: Self) -> Self {
            // SAFETY: the host has AVX.
            unsafe { Self(_mm256_div_ps(self.0, b.0)) }
        }

        #[inline(always)]
        fn min(self, b: Self) -> Self {
            // SAFETY: the host has AVX.
            unsafe { Self(_mm256_min_ps(self.0, b.0)) }
        }

        #[inline(always)]
        fn max(self, b: Self) -> Self {
            // SAFETY: the host has AVX.
            unsafe { Self(_mm256_max_ps(self.0, b.0)) }
        }

        #[inline(always)]
        fn lt_select(self, b: Self, t: Self, f: Self) -> Self {
            // SAFETY: the host has AVX. `LT_OQ` is the ordered, quiet `<`:
            // false on NaN, like Rust's.
            unsafe {
                let mask = _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, b.0);
                Self(_mm256_blendv_ps(f.0, t.0, mask))
            }
        }

        #[inline(always)]
        fn tree8(acc: [Self; LANES]) -> Self {
            // No intrinsic in a closure: one without the AVX feature
            // between the wrapper and an intrinsic keeps it from inlining.
            // SAFETY: the host has AVX. Input `j` sits in the low half and
            // `j + 4` in the high half from the first step on, so the
            // result comes out in input order.
            unsafe {
                let h0 = fold_halves(acc[0].0, acc[4].0);
                let h1 = fold_halves(acc[1].0, acc[5].0);
                let h2 = fold_halves(acc[2].0, acc[6].0);
                let h3 = fold_halves(acc[3].0, acc[7].0);
                let pairs = shuffle_sums_256::<PAIRS_0, PAIRS_1>;
                let adjacent = shuffle_sums_256::<ADJACENT_0, ADJACENT_1>;
                Self(adjacent(pairs(h0, h1), pairs(h2, h3)))
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{Avx, Sse2 as Baseline};
#[cfg(not(target_arch = "x86_64"))]
use Portable as Baseline;

/// The tier the blocked kernels and the activations run on this host: `"avx"` where CPUID reports
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

/// Most operands (mat-vec) or operand pairs (outer product) one blocked
/// kernel call takes. A mat-vec block of four holds four operand registers,
/// eight accumulators and a row: 13 of the AVX tier's 16 registers. Eight
/// operands measured slower there (DESIGN.md §8), so the value is the same
/// on every tier.
pub const MAX_BLOCK: usize = 4;

/// A row's or an operand's whole [`LANES`]-wide lanes, its tail left off.
type WholeLanes<'a> = &'a [[f32; LANES]];

/// Rows `first..rows` of a `cols`-wide `chunk` against `K` operands, `R`
/// rows at a time for as many whole groups of `R` as fit; returns the first
/// row left over. `ys[j][r]` becomes [`dot`]`(row_r, xs[j])` bit for bit;
/// `lanes[j]` is `xs[j]`'s first `n / LANES` whole lanes, `n` the common
/// length.
///
/// Each `(row, operand)` pair keeps `dot`'s association: its own
/// [`LANES`] accumulators, [`lane_tree`] (all `R · K ≤ LANES` of a group at
/// once, through [`Lanes::tree8`]) and the in-order tail. The accumulators
/// are `R · K` independent dependency chains, where `dot` alone has one,
/// and each operand register is loaded once per `R` rows.
#[inline(always)]
fn matvec_rows<L: Lanes, const K: usize, const R: usize>(
    (chunk, cols, rows): (&[f32], usize, usize),
    (xs, lanes, n): (&[&[f32]], &[WholeLanes<'_>; K], usize),
    ys: &mut [&mut [f32]],
    first: usize,
) -> usize {
    let mut r0 = first;
    while r0 + R <= rows {
        let group = &chunk[r0 * cols..(r0 + R) * cols];
        let mut rest = group;
        let w: [WholeLanes<'_>; R] = std::array::from_fn(|_| {
            let (row, next) = rest.split_at(cols);
            rest = next;
            row[..n].as_chunks().0
        });
        // Loops rather than `array::from_fn`: a closure holding an `L`
        // would stand between an `*_avx` wrapper and its intrinsics.
        let mut acc = [[L::zero(); K]; R];
        for c in 0..n / LANES {
            let mut x = [L::zero(); K];
            for (x, lanes) in x.iter_mut().zip(lanes) {
                *x = L::load(&lanes[c]);
            }
            for (a, w) in acc.iter_mut().zip(&w) {
                let w = L::load(&w[c]);
                for (a, x) in a.iter_mut().zip(x) {
                    *a = a.mul_acc(w, x);
                }
            }
        }
        // Operand-major, so that operand `j`'s `R` sums are its outputs.
        let mut all = [L::zero(); LANES];
        for (i, a) in acc.iter().enumerate() {
            for (j, a) in a.iter().enumerate() {
                all[j * R + i] = *a;
            }
        }
        let mut sums = [0.0f32; LANES];
        L::tree8(all).store(&mut sums);
        for (y, sums) in ys.iter_mut().zip(sums.chunks_exact(R)) {
            y[r0..r0 + R].copy_from_slice(sums);
        }
        if n % LANES != 0 {
            fold_tails(group, cols, n, xs, ys, r0);
        }
        r0 += R;
    }
    r0
}

/// `ys[j][r0 + i] += row_i[t] * xs[j][t]` for the columns `t` past the
/// whole lanes of `n`, in order, for every `cols`-wide row `i` of `w`:
/// [`dot`]'s scalar tail. Out of line, as no width the models use has one.
#[cold]
#[inline(never)]
fn fold_tails(w: &[f32], cols: usize, n: usize, xs: &[&[f32]], ys: &mut [&mut [f32]], r0: usize) {
    let start = n - n % LANES;
    for (y, x) in ys.iter_mut().zip(xs) {
        for (o, row) in y[r0..].iter_mut().zip(w.chunks_exact(cols)) {
            for (r, v) in row[start..n].iter().zip(&x[start..n]) {
                *o += r * v;
            }
        }
    }
}

/// [`matvec_block`] on `K` operands: whole groups of `R` rows, then the
/// rows left over one at a time.
#[inline(always)]
fn matvec_k<L: Lanes, const K: usize, const R: usize>(
    chunk: &[f32],
    cols: usize,
    xs: &[&[f32]],
    ys: &mut [&mut [f32]],
) {
    let operands: [&[f32]; K] = xs.try_into().expect("dispatched on the operand count");
    let n = cols.min(operands[0].len());
    let lanes = operands.map(|x| x[..n].as_chunks().0);
    let chunk = (chunk, cols, chunk.len() / cols);
    let r = matvec_rows::<L, K, R>(chunk, (xs, &lanes, n), ys, 0);
    matvec_rows::<L, K, 1>(chunk, (xs, &lanes, n), ys, r);
}

/// [`matvec_block`] past its asserts, on tier `L`: `8 / K` rows at a time.
#[inline(always)]
fn matvec_body<L: Lanes>(chunk: &[f32], cols: usize, xs: &[&[f32]], ys: &mut [&mut [f32]]) {
    match xs.len() {
        1 => matvec_k::<L, 1, 8>(chunk, cols, xs, ys),
        2 => matvec_k::<L, 2, 4>(chunk, cols, xs, ys),
        3 => matvec_k::<L, 3, 2>(chunk, cols, xs, ys),
        MAX_BLOCK => matvec_k::<L, MAX_BLOCK, 2>(chunk, cols, xs, ys),
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
/// once for all of them. `K` operands run `8 / K` rows at a time, so eight
/// (six for three operands) dot products are in flight.
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

/// Past this magnitude the tanh rational rounds to ±1, so inputs are clamped
/// to it (and ±inf become ±1).
const TANH_CLAMP: f32 = 7.905_311;
/// Below this magnitude tanh(x) is x to within f32 precision.
const TANH_TINY: f32 = 4.0e-4;
/// Numerator `P` of `tanh(x) ≈ x·P(x²)/Q(x²)`, highest power first (Horner
/// order): the float coefficients of Eigen's `generic_fast_tanh_float`.
const TANH_P: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_3e-8,
    1.485_722_4e-5,
    6.372_619_5e-4,
    4.893_524_6e-3,
];
/// Denominator `Q` of the tanh rational, highest power first.
const TANH_Q: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_7e-3, 4.893_525e-3];

/// `Σ coeffs[i]·x2^(n-1-i)` by Horner, a rounded multiply then a rounded add
/// per step.
#[inline(always)]
fn horner<L: Lanes>(x2: L, coeffs: &[f32]) -> L {
    let (&first, rest) = coeffs
        .split_first()
        .expect("a polynomial has a coefficient");
    rest.iter()
        .fold(L::splat(first), |acc, &c| acc.mul(x2).add(L::splat(c)))
}

/// tanh per lane: the clamped odd rational `x·P(x²)/Q(x²)`, or `x` itself
/// below [`TANH_TINY`]. Odd to the bit (`x²` and `Q` do not see the sign,
/// and `x` multiplies `P` last); NaN in, NaN out.
#[inline(always)]
fn tanh_lanes<L: Lanes>(x: L) -> L {
    // `x` is the second operand of both: `minps` / `maxps` return that one
    // when either is NaN, so a NaN input stays NaN.
    let clamped = L::splat(-TANH_CLAMP).max(L::splat(TANH_CLAMP).min(x));
    let x2 = clamped.mul(clamped);
    let ratio = clamped.mul(horner(x2, &TANH_P)).div(horner(x2, &TANH_Q));
    let magnitude = x.max(x.mul(L::splat(-1.0)));
    magnitude.lt_select(L::splat(TANH_TINY), x, ratio)
}

/// The logistic sigmoid per lane, as `0.5·tanh(0.5·x) + 0.5` on
/// [`tanh_lanes`]: within `[0, 1]` because that tanh is within `[-1, 1]`.
#[inline(always)]
fn sigmoid_lanes<L: Lanes>(x: L) -> L {
    let half = L::splat(0.5);
    half.mul(tanh_lanes(half.mul(x))).add(half)
}

/// `y[i] = sigmoid(x[i])` with `SIGMOID`, else `tanh(x[i])`, [`LANES`]
/// elements at a time; the tail goes through the same lanes zero-padded, so
/// every element gets the same operations wherever it sits. (A const
/// rather than a function argument: a call through `Fn` would not inline
/// into the `*_avx` wrappers.)
#[inline(always)]
fn activation_body<L: Lanes, const SIGMOID: bool>(x: &[f32], y: &mut [f32]) {
    let (xs, x_tail) = x.as_chunks::<LANES>();
    let (ys, y_tail) = y.as_chunks_mut::<LANES>();
    for (x, y) in xs.iter().zip(ys) {
        activation::<L, SIGMOID>(L::load(x)).store(y);
    }
    if !x_tail.is_empty() {
        let mut lanes = [0.0f32; LANES];
        lanes[..x_tail.len()].copy_from_slice(x_tail);
        activation::<L, SIGMOID>(L::load(&lanes)).store(&mut lanes);
        y_tail.copy_from_slice(&lanes[..x_tail.len()]);
    }
}

#[inline(always)]
fn activation<L: Lanes, const SIGMOID: bool>(x: L) -> L {
    if SIGMOID {
        sigmoid_lanes(x)
    } else {
        tanh_lanes(x)
    }
}

/// [`tanh_into`] past its assert, on tier `L`.
#[inline(always)]
fn tanh_body<L: Lanes>(x: &[f32], y: &mut [f32]) {
    activation_body::<L, false>(x, y);
}

/// [`sigmoid_into`] past its assert, on tier `L`.
#[inline(always)]
fn sigmoid_body<L: Lanes>(x: &[f32], y: &mut [f32]) {
    activation_body::<L, true>(x, y);
}

/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn tanh_into_avx(x: &[f32], y: &mut [f32]) {
    tanh_body::<Avx>(x, y);
}

/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sigmoid_into_avx(x: &[f32], y: &mut [f32]) {
    sigmoid_body::<Avx>(x, y);
}

/// `y[i] = tanh(x[i])`: a clamped odd rational of degree 13/6 (Eigen's
/// float coefficients), evaluated by Horner with separately rounded
/// multiplies and adds and one IEEE division, so the bits depend on the
/// input alone — not on the tier, the build flags or the host's libm. Max
/// abs error against f64 tanh ≈ 4e-7 (at most 7 ulp); `tanh(±inf) = ±1`,
/// `tanh(-0) = -0`, NaN stays NaN.
///
/// # Panics
///
/// Panics if `x` and `y` differ in length.
pub fn tanh_into(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "tanh_into: one output per input");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX was just detected.
        return unsafe { tanh_into_avx(x, y) };
    }
    tanh_body::<Baseline>(x, y);
}

/// `y[i] = 1 / (1 + exp(-x[i]))`, computed as `0.5·tanh(0.5·x) + 0.5` on
/// [`tanh_into`]'s rational: as deterministic, max abs error ≈ 2.5e-7, and
/// always within `[0, 1]`.
///
/// # Panics
///
/// Panics if `x` and `y` differ in length.
pub fn sigmoid_into(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "sigmoid_into: one output per input");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX was just detected.
        return unsafe { sigmoid_into_avx(x, y) };
    }
    sigmoid_body::<Baseline>(x, y);
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

    fn tanh_of(x: f32) -> f32 {
        let mut y = [0.0];
        tanh_into(&[x], &mut y);
        y[0]
    }

    fn sigmoid_of(x: f32) -> f32 {
        let mut y = [0.0];
        sigmoid_into(&[x], &mut y);
        y[0]
    }

    /// Distance in representable f32 steps from `got` to `want`.
    fn ulps(got: f32, want: f64) -> f64 {
        let want32 = want as f32;
        let step = f64::from(want32.abs().next_up() - want32.abs());
        (f64::from(got) - want).abs() / step
    }

    /// On a dense grid of [-30, 30] (step 2^-13), the
    /// activations stay within their documented error of the f64 functions;
    /// tanh is odd to the bit and sigmoid never leaves [0, 1].
    #[test]
    fn activations_meet_their_accuracy_bounds() {
        const STEPS_PER_UNIT: i32 = 1 << 13;
        let xs: Vec<f32> = (-30 * STEPS_PER_UNIT..=30 * STEPS_PER_UNIT)
            .map(|i| (f64::from(i) / f64::from(STEPS_PER_UNIT)) as f32)
            .collect();
        let neg: Vec<f32> = xs.iter().map(|x| -x).collect();
        let (mut t, mut t_neg, mut s) = (
            vec![0.0; xs.len()],
            vec![0.0; xs.len()],
            vec![0.0; xs.len()],
        );
        tanh_into(&xs, &mut t);
        tanh_into(&neg, &mut t_neg);
        sigmoid_into(&xs, &mut s);
        let (mut tanh_abs, mut tanh_ulps, mut sigmoid_abs) = (0.0f64, 0.0f64, 0.0f64);
        for (i, &x) in xs.iter().enumerate() {
            let want = f64::from(x).tanh();
            tanh_abs = tanh_abs.max((f64::from(t[i]) - want).abs());
            tanh_ulps = tanh_ulps.max(ulps(t[i], want));
            let want = 1.0 / (1.0 + (-f64::from(x)).exp());
            sigmoid_abs = sigmoid_abs.max((f64::from(s[i]) - want).abs());
            assert_eq!(t_neg[i].to_bits(), (-t[i]).to_bits(), "tanh is odd at {x}");
            assert!((0.0..=1.0).contains(&s[i]), "sigmoid({x}) = {}", s[i]);
        }
        assert!(tanh_abs <= 4.3e-7, "tanh max abs error {tanh_abs:e}");
        assert!(tanh_ulps <= 7.0, "tanh max error {tanh_ulps} ulp");
        assert!(
            sigmoid_abs <= 2.5e-7,
            "sigmoid max abs error {sigmoid_abs:e}"
        );
    }

    #[test]
    fn activations_keep_their_special_values() {
        assert_eq!(tanh_of(f32::INFINITY), 1.0);
        assert_eq!(tanh_of(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh_of(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh_of(0.0).to_bits(), 0.0f32.to_bits());
        assert!(tanh_of(f32::NAN).is_nan());
        assert_eq!(sigmoid_of(f32::INFINITY), 1.0);
        assert_eq!(sigmoid_of(f32::NEG_INFINITY), 0.0);
        assert_eq!(sigmoid_of(0.0), 0.5);
        assert!(sigmoid_of(f32::NAN).is_nan());
    }

    #[test]
    #[should_panic(expected = "one output per input")]
    fn activations_reject_mismatched_lengths() {
        tanh_into(&[0.0; 3], &mut [0.0; 2]);
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

    /// The five kernels on one tier, past the entry points' asserts — or
    /// the dispatching entry points themselves.
    struct Tier {
        name: &'static str,
        matvec: MatVecFn,
        tmatvec: fn(&[f32], usize, &[f32], &mut [f32]),
        outer: OuterFn,
        tanh: MapFn,
        sigmoid: MapFn,
    }
    type MatVecFn = fn(&[f32], usize, &[&[f32]], &mut [&mut [f32]]);
    type OuterFn = fn(&mut [f32], usize, &[&[f32]], &[&[f32]]);
    type MapFn = fn(&[f32], &mut [f32]);

    const PORTABLE: Tier = Tier {
        name: "portable",
        matvec: matvec_body::<Portable>,
        tmatvec: tmatvec_body::<Portable>,
        outer: outer_body::<Portable>,
        tanh: tanh_body::<Portable>,
        sigmoid: sigmoid_body::<Portable>,
    };

    /// Whichever tier this host dispatches to, through the public functions.
    const DISPATCH: Tier = Tier {
        name: "dispatch",
        matvec: matvec_block,
        tmatvec: tmatvec_contrib,
        outer: outer_block,
        tanh: tanh_into,
        sigmoid: sigmoid_into,
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
                tanh: tanh_body::<x86::Sse2>,
                sigmoid: sigmoid_body::<x86::Sse2>,
            });
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY (all five): AVX was just detected.
                tiers.push(Tier {
                    name: "avx",
                    matvec: |c, n, xs, ys| unsafe { matvec_block_avx(c, n, xs, ys) },
                    tmatvec: |c, n, dy, out| unsafe { tmatvec_contrib_avx(c, n, dy, out) },
                    outer: |c, n, xs, dys| unsafe { outer_block_avx(c, n, xs, dys) },
                    tanh: |x, y| unsafe { tanh_into_avx(x, y) },
                    sigmoid: |x, y| unsafe { sigmoid_into_avx(x, y) },
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

    /// `(tanh, sigmoid)` of `x` on `tier`, as bits.
    fn run_activations(tier: &Tier, x: &[f32]) -> (Vec<u32>, Vec<u32>) {
        let mut y = vec![7.0f32; x.len()];
        (tier.tanh)(x, &mut y);
        let tanh = bits(&y);
        (tier.sigmoid)(x, &mut y);
        (tanh, bits(&y))
    }

    /// Inputs an activation could get wrong: signed zeros, infinities, NaN,
    /// subnormals, and one ulp either side of the clamp and the tiny
    /// threshold — for sigmoid, which takes tanh of `x/2`, of twice those.
    fn activation_edges() -> Vec<f32> {
        let mut edges = vec![
            0.0,
            f32::INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0,
            f32::from_bits(1),
            1.0,
            f32::MAX,
        ];
        for t in [TANH_CLAMP, TANH_TINY, 2.0 * TANH_CLAMP, 2.0 * TANH_TINY] {
            edges.extend([t.next_down(), t, t.next_up()]);
        }
        let negated: Vec<f32> = edges.iter().map(|x| -x).collect();
        edges.extend(negated);
        edges
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

        /// On every tier and through the entry points, tanh and sigmoid ≡ the
        /// `Portable` tier, bit for bit: ordinary values, values around the
        /// clamp and the tiny threshold, and the edge values mixed in, at
        /// every length up to past two registers.
        #[test]
        fn activations_equal_the_portable_tier(
            draws in prop::collection::vec(
                (any::<u8>(), -40.0f32..40.0, -1e-3f32..1e-3, any::<usize>()),
                0..40,
            ),
        ) {
            let edges = activation_edges();
            let x: Vec<f32> = draws
                .into_iter()
                .map(|(dice, wide, small, edge)| match dice % 4 {
                    0 => small,
                    1 => edges[edge % edges.len()],
                    _ => wide,
                })
                .collect();
            let want = run_activations(&PORTABLE, &x);
            for tier in tiers().iter().chain([&DISPATCH]) {
                prop_assert_eq!(&run_activations(tier, &x), &want, "tier {}", tier.name);
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

    /// Every edge value, at every position of every length 0–17 (so in the
    /// full registers and in the zero-padded tail), comes out of every tier
    /// as it does out of `Portable`.
    #[test]
    fn activation_edges_are_the_same_on_every_tier() {
        let edges = activation_edges();
        for len in 0..=17 {
            for start in 0..edges.len() {
                let x: Vec<f32> = edges
                    .iter()
                    .cycle()
                    .skip(start)
                    .take(len)
                    .copied()
                    .collect();
                let want = run_activations(&PORTABLE, &x);
                for tier in tiers().iter().chain([&DISPATCH]) {
                    assert_eq!(
                        run_activations(tier, &x),
                        want,
                        "tier {} on {x:?}",
                        tier.name
                    );
                }
            }
        }
    }

    /// Eight inputs of eight lanes.
    type Lanes8 = [[f32; LANES]; LANES];
    type Tree8Fn = fn(&Lanes8) -> [f32; LANES];

    /// [`Lanes::tree8`] on tier `L`, from and to arrays.
    #[inline(always)]
    fn tree8_body<L: Lanes>(acc: &Lanes8) -> [f32; LANES] {
        let mut out = [0.0; LANES];
        L::tree8(acc.each_ref().map(L::load)).store(&mut out);
        out
    }

    /// # Safety
    ///
    /// The host must support AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn tree8_avx(acc: &Lanes8) -> [f32; LANES] {
        tree8_body::<x86::Avx>(acc)
    }

    /// `tree8` on every tier this host can run, as [`tiers`] lists them.
    fn tree8_tiers() -> Vec<(&'static str, Tree8Fn)> {
        #[allow(unused_mut)]
        let mut tiers: Vec<(&'static str, Tree8Fn)> = vec![("portable", tree8_body::<Portable>)];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(("sse2", tree8_body::<x86::Sse2>));
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: AVX was just detected.
                tiers.push(("avx", |acc| unsafe { tree8_avx(acc) }));
            }
        }
        tiers
    }

    /// NaNs of three payloads (one negative, one signalling) beside signed
    /// zeros and infinities.
    const TREE_SPECIALS: [u32; 7] = [
        0x0000_0000,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0001,
        0xffc0_0abc,
        0x7f80_0123,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On every tier, lane `j` of `tree8` is `lane_tree` of input `j`:
        /// bit for bit, except that a NaN matches any NaN. `tree8` keeps
        /// `lane_tree`'s operand order, but which payload an add of two
        /// NaNs returns is not specified for Rust floats, and LLVM does
        /// commute the scalar adds of `lane_tree` (this test saw a NaN
        /// payload from the second operand there and from the first on the
        /// AVX tier).
        #[test]
        fn tree8_equals_lane_tree_of_each_input(
            draws in prop::collection::vec((any::<u8>(), any::<usize>(), -2.0f32..2.0), LANES * LANES),
        ) {
            let mut acc: Lanes8 = [[0.0; LANES]; LANES];
            for (v, (dice, which, ordinary)) in acc.as_flattened_mut().iter_mut().zip(draws) {
                *v = if dice < 64 {
                    f32::from_bits(TREE_SPECIALS[which % TREE_SPECIALS.len()])
                } else {
                    ordinary
                };
            }
            let want: Vec<u32> = acc.iter().map(|a| nan_as_one(lane_tree(a))).collect();
            for (name, tree8) in tree8_tiers() {
                let got: Vec<u32> = tree8(&acc).into_iter().map(nan_as_one).collect();
                prop_assert_eq!(got, want.clone(), "tier {}", name);
            }
        }
    }

    /// `v`'s bits, every NaN as one pattern.
    fn nan_as_one(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Every special value against every other, in each pair of lanes
    /// `lane_tree` adds first, on every tier (a NaN matches any NaN).
    #[test]
    fn tree8_handles_every_pair_of_special_values() {
        let specials = TREE_SPECIALS.map(f32::from_bits);
        for (i, &a) in specials.iter().enumerate() {
            let mut acc: Lanes8 = [[1.0; LANES]; LANES];
            for (j, input) in acc.iter_mut().enumerate() {
                let b = specials[(i + j) % specials.len()];
                // Input j meets `b` at lane pair (j % 4, j % 4 + 4).
                input[j % 4] = a;
                input[j % 4 + 4] = b;
            }
            let want: Vec<u32> = acc.iter().map(|a| nan_as_one(lane_tree(a))).collect();
            for (name, tree8) in tree8_tiers() {
                let got: Vec<u32> = tree8(&acc).into_iter().map(nan_as_one).collect();
                assert_eq!(got, want, "tier {name}, {a:?} first");
            }
        }
    }

    /// Every shape a blocked mat-vec can take on one chunk — rows 1–17 (so
    /// every leftover after whole groups of `8 / K` rows), 1–4 operands and
    /// widths 1–70 (every tail behind the lanes) — on every tier and
    /// through the entry point ≡ one `dot` per (row, operand).
    #[test]
    fn matvec_block_equals_dots_on_every_shape() {
        // A fixed stream of values, with a signed zero or an infinity
        // every 97th: an LCG, so the test needs no strategy.
        let mut state = 0x2545_f491_u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            match state % 97 {
                0 => -0.0,
                1 => f32::INFINITY,
                _ => (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0,
            }
        };
        for rows in 1..=17 {
            for cols in 1..=70 {
                let chunk: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
                for k in 1..=MAX_BLOCK {
                    let xs: Vec<Vec<f32>> = (0..k)
                        .map(|_| (0..cols).map(|_| next()).collect())
                        .collect();
                    let want: Vec<Vec<u32>> = xs
                        .iter()
                        .map(|x| {
                            bits(
                                &chunk
                                    .chunks_exact(cols)
                                    .map(|row| dot(row, x))
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect();
                    let case = Case {
                        rows,
                        cols,
                        chunk: chunk.clone(),
                        grad: Vec::new(),
                        xs,
                        dys: Vec::new(),
                    };
                    for tier in tiers().iter().chain([&DISPATCH]) {
                        let got: Vec<Vec<u32>> =
                            run_matvec(tier, &case).iter().map(|y| bits(y)).collect();
                        assert_eq!(
                            got, want,
                            "tier {} at {rows} x {cols}, {k} operands",
                            tier.name
                        );
                    }
                }
            }
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
