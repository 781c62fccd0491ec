//! SIMD-friendly inner kernels shared by every execution backend.
//!
//! The interpreted backends ([`super::semantics::execute_instr`]) and the
//! lowered backend ([`crate::engine::lowered`]) both route their mat-vec,
//! transposed mat-vec and outer-product hot loops through these functions.
//! Sharing the exact loop bodies is what makes the backends bit-identical:
//! f32 addition is not associative, so two different reduction orders would
//! produce different losses. Every kernel here has one fixed, deterministic
//! association — chunked into [`LANES`] independent accumulators so LLVM can
//! autovectorize the loop, with a fixed pairwise reduction tree at the end
//! and a sequential scalar tail.
//!
//! The interpreter runs one [`dot`] / [`axpy`] per chunk row. The lowered
//! sweep runs whole chunk ops through the *register-blocked* forms
//! ([`matvec_block`], [`tmatvec_contrib`], [`outer_block`]), which keep more
//! in registers between loads — a chunk row against several operands, a tile
//! of the contribution across all rows, a tile of a gradient row across
//! several operands — while every output element still receives exactly the
//! per-row kernels' operations in exactly their order, so the two forms agree
//! to the bit (the proptests below hold them to that, NaN, infinities and
//! signed zeros included).

/// Number of independent accumulator lanes in the chunked reduction.
///
/// Eight f32 lanes fill one AVX2 register; on narrower ISAs LLVM splits the
/// lanes across two registers, which is still profitable. The value is part
/// of the numerical contract (it fixes the association of [`dot`]), so it
/// must never depend on the host CPU.
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
/// kernels accumulate in.
///
/// The blocked loops are written against this type rather than left to the
/// autovectorizer: with several accumulator sets live, LLVM's SLP pass
/// vectorizes *across* operands (transposing every accumulator inside the
/// main loop) or scalarizes, depending on inlining context — measured 0.3x to
/// 2.1x of the per-row loop for the same source. Every operation is a plain
/// IEEE lane-wise multiply or add (never fused), so the two implementations
/// and the scalar kernels round identically.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use core::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps,
    };

    use super::LANES;

    /// Two SSE registers (SSE is part of the x86-64 baseline, so no run-time
    /// detection and no wider, host-dependent path).
    #[derive(Clone, Copy)]
    pub(super) struct Lanes(__m128, __m128);

    impl Lanes {
        #[inline(always)]
        pub(super) fn zero() -> Self {
            // SAFETY: SSE is always available on x86-64.
            unsafe { Self(_mm_setzero_ps(), _mm_setzero_ps()) }
        }

        #[inline(always)]
        pub(super) fn splat(s: f32) -> Self {
            // SAFETY: SSE is always available on x86-64.
            unsafe { Self(_mm_set1_ps(s), _mm_set1_ps(s)) }
        }

        #[inline(always)]
        pub(super) fn load(v: &[f32; LANES]) -> Self {
            // SAFETY: SSE is always available on x86-64; both unaligned loads
            // read four floats inside the eight `v` borrows.
            unsafe { Self(_mm_loadu_ps(v.as_ptr()), _mm_loadu_ps(v.as_ptr().add(4))) }
        }

        #[inline(always)]
        pub(super) fn store(self, out: &mut [f32; LANES]) {
            // SAFETY: SSE is always available on x86-64; both unaligned
            // stores write four floats inside the eight `out` borrows.
            unsafe {
                _mm_storeu_ps(out.as_mut_ptr(), self.0);
                _mm_storeu_ps(out.as_mut_ptr().add(4), self.1);
            }
        }

        /// `self + a * b` per lane: product rounded, then sum rounded.
        #[inline(always)]
        pub(super) fn mul_acc(self, a: Self, b: Self) -> Self {
            // SAFETY: SSE is always available on x86-64.
            unsafe {
                Self(
                    _mm_add_ps(self.0, _mm_mul_ps(a.0, b.0)),
                    _mm_add_ps(self.1, _mm_mul_ps(a.1, b.1)),
                )
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod lanes {
    use super::LANES;

    /// Portable stand-in: a plain array, one scalar multiply and add per lane.
    #[derive(Clone, Copy)]
    pub(super) struct Lanes([f32; LANES]);

    impl Lanes {
        #[inline(always)]
        pub(super) fn zero() -> Self {
            Self([0.0; LANES])
        }

        #[inline(always)]
        pub(super) fn splat(s: f32) -> Self {
            Self([s; LANES])
        }

        #[inline(always)]
        pub(super) fn load(v: &[f32; LANES]) -> Self {
            Self(*v)
        }

        #[inline(always)]
        pub(super) fn store(self, out: &mut [f32; LANES]) {
            *out = self.0;
        }

        /// `self + a * b` per lane: product rounded, then sum rounded.
        #[inline(always)]
        pub(super) fn mul_acc(mut self, a: Self, b: Self) -> Self {
            for l in 0..LANES {
                self.0[l] += a.0[l] * b.0[l];
            }
            self
        }
    }
}

use lanes::Lanes;

/// `K` dot products of one chunk row: `out[j]` is [`dot`]`(row, xs[j])` bit
/// for bit, for operands of one common length.
///
/// Each `(row, operand)` pair keeps `dot`'s association — its own [`LANES`]
/// accumulators, the same tree, the same in-order tail. The row is loaded
/// once per `K` multiply-adds and the `K` accumulators are independent
/// dependency chains, where `dot` alone has two loads per multiply-add and
/// one chain per SIMD register.
#[inline(always)]
fn dot_block<const K: usize>(row: &[f32], xs: [&[f32]; K]) -> [f32; K] {
    let n = row.len().min(xs[0].len());
    let (row, row_tail) = row[..n].as_chunks::<LANES>();
    let xs = xs.map(|x| x[..n].as_chunks::<LANES>());
    let mut acc = [Lanes::zero(); K];
    for (k, r) in row.iter().enumerate() {
        let r = Lanes::load(r);
        for (a, (x, _)) in acc.iter_mut().zip(&xs) {
            *a = a.mul_acc(r, Lanes::load(&x[k]));
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
/// four accumulators are half the SSE register file.
pub const MAX_BLOCK: usize = 4;

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
    fn sweep<const K: usize>(chunk: &[f32], cols: usize, xs: &[&[f32]], ys: &mut [&mut [f32]]) {
        let xs: [&[f32]; K] = xs.try_into().expect("dispatched on the operand count");
        for (r, row) in chunk.chunks_exact(cols).enumerate() {
            for (y, o) in ys.iter_mut().zip(dot_block(row, xs)) {
                y[r] = o;
            }
        }
    }
    assert_eq!(xs.len(), ys.len(), "one output per operand");
    assert!(
        xs.iter().all(|x| x.len() == xs[0].len()),
        "blocked mat-vec operands must have one length"
    );
    match xs.len() {
        1 => sweep::<1>(chunk, cols, xs, ys),
        2 => sweep::<2>(chunk, cols, xs, ys),
        3 => sweep::<3>(chunk, cols, xs, ys),
        MAX_BLOCK => sweep::<MAX_BLOCK>(chunk, cols, xs, ys),
        n => panic!("a block holds 1..={MAX_BLOCK} operands, not {n}"),
    }
}

/// Accumulator registers a tile of [`tmatvec_contrib`] / [`outer_block`]
/// holds: four [`Lanes`] are eight of the sixteen SSE registers, the most
/// that leaves room for the operands.
const TILE_LANES: usize = 4;
/// Columns per tile.
const TILE: usize = TILE_LANES * LANES;

/// `acc += s * x` over one tile.
#[inline(always)]
fn tile_axpy(acc: &mut [Lanes; TILE_LANES], s: f32, x: &[f32]) {
    let s = Lanes::splat(s);
    let (x, _) = x.as_chunks::<LANES>();
    for (a, v) in acc.iter_mut().zip(x) {
        *a = a.mul_acc(s, Lanes::load(v));
    }
}

#[inline(always)]
fn tile_store(acc: [Lanes; TILE_LANES], out: &mut [f32]) {
    let (out, _) = out.as_chunks_mut::<LANES>();
    for (a, o) in acc.into_iter().zip(out) {
        a.store(o);
    }
}

/// Transposed mat-vec contribution of one register chunk:
/// `contrib[c] = Σ_r dy[r] * row_r[c]`, rows in order and rows whose `dy[r]`
/// is zero skipped — bit-identical to zero-filling `contrib` and running one
/// [`axpy`] per non-zero row, but a 32-column slice of `contrib` stays
/// in registers across all rows instead of being loaded and stored per row.
/// Columns past the chunk's width are zeroed.
pub fn tmatvec_contrib(chunk: &[f32], cols: usize, dy: &[f32], contrib: &mut [f32]) {
    let n = contrib.len().min(cols);
    let (contrib, beyond) = contrib.split_at_mut(n);
    beyond.fill(0.0);
    let mut tiles = contrib.chunks_exact_mut(TILE);
    let mut c0 = 0;
    for tile in &mut tiles {
        let mut acc = [Lanes::zero(); TILE_LANES];
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
    fn sweep<const K: usize>(chunk: &mut [f32], cols: usize, xs: &[&[f32]], dys: &[&[f32]]) {
        let xs: [&[f32]; K] = xs.try_into().expect("dispatched on the pair count");
        let dys: [&[f32]; K] = dys.try_into().expect("one dy per x");
        let n = xs[0].len().min(cols);
        for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
            let s = dys.map(|dy| dy[r]);
            let mut tiles = row[..n].chunks_exact_mut(TILE);
            let mut c0 = 0;
            for tile in &mut tiles {
                let (lanes, _) = tile.as_chunks::<LANES>();
                let mut acc: [Lanes; TILE_LANES] = std::array::from_fn(|l| Lanes::load(&lanes[l]));
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
    assert_eq!(xs.len(), dys.len(), "one dy per x");
    assert!(
        xs.iter().all(|x| x.len() == xs[0].len()),
        "blocked outer-product operands must have one length"
    );
    match xs.len() {
        1 => sweep::<1>(chunk, cols, xs, dys),
        2 => sweep::<2>(chunk, cols, xs, dys),
        3 => sweep::<3>(chunk, cols, xs, dys),
        MAX_BLOCK => sweep::<MAX_BLOCK>(chunk, cols, xs, dys),
        n => panic!("a block holds 1..={MAX_BLOCK} pairs, not {n}"),
    }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Blocks of up to `MAX_BLOCK` operands ≡ one `dot` per (row,
        /// operand).
        #[test]
        fn matvec_block_equals_per_operand_dots(case in arb_case()) {
            let Case { rows, cols, chunk, xs, .. } = &case;
            let mut want = vec![vec![0.0f32; *rows]; xs.len()];
            for (y, x) in want.iter_mut().zip(xs) {
                for (o, row) in y.iter_mut().zip(chunk.chunks_exact(*cols)) {
                    *o = dot(row, x);
                }
            }
            let mut got = vec![vec![7.0f32; *rows]; xs.len()];
            for (ys, xs) in got.chunks_mut(MAX_BLOCK).zip(xs.chunks(MAX_BLOCK)) {
                let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
                let mut ys: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
                matvec_block(chunk, *cols, &xs, &mut ys);
            }
            for (got, want) in got.iter().zip(&want) {
                prop_assert_eq!(bits(got), bits(want));
            }
        }

        /// The register-tiled contribution ≡ zero-fill plus one `axpy` per
        /// non-zero `dy` row.
        #[test]
        fn tmatvec_contrib_equals_per_row_axpys(case in arb_case()) {
            let Case { cols, chunk, xs, dys, .. } = &case;
            for (x, dy) in xs.iter().zip(dys) {
                let mut want = vec![0.0f32; x.len()];
                for (&s, row) in dy.iter().zip(chunk.chunks_exact(*cols)) {
                    if s == 0.0 {
                        continue;
                    }
                    axpy(&mut want, s, row);
                }
                let mut got = vec![7.0f32; x.len()];
                tmatvec_contrib(chunk, *cols, dy, &mut got);
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }

        /// Blocks of up to `MAX_BLOCK` pairs, in order ≡ one sweep of
        /// `axpy`s per pair, in order.
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
            let mut got = grad.clone();
            for (xs, dys) in xs.chunks(MAX_BLOCK).zip(dys.chunks(MAX_BLOCK)) {
                let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
                let dys: Vec<&[f32]> = dys.iter().map(Vec::as_slice).collect();
                outer_block(&mut got, *cols, &xs, &dys);
            }
            prop_assert_eq!(bits(&got), bits(&want));
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
        let mut contrib = vec![7.0f32; cols];
        tmatvec_contrib(&chunk, cols, &[0.0, -0.0], &mut contrib);
        assert_eq!(bits(&contrib), bits(&vec![0.0; cols]));

        let mut grad = vec![-0.0f32; 2 * cols];
        let x = vec![f32::NAN; cols];
        outer_block(&mut grad, cols, &[&x, &x], &[&[0.0, -0.0], &[-0.0, 0.0]]);
        assert_eq!(bits(&grad), bits(&vec![-0.0; 2 * cols]));
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
