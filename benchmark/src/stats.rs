//! Order statistics and the FNV-1a hash used for fingerprints.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank quantile (`ceil(q·n)`-th smallest) of `values`.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = (q * v.len() as f64).ceil().max(1.0) as usize - 1;
    v[idx.min(v.len() - 1)]
}

/// Elementwise minimum of equally long rows: position `i` of the result is
/// the smallest value any row has at `i`.
///
/// Every repetition times the same deterministic sequence of calls, and on
/// a shared host interference only ever adds time, so the per-position
/// minimum is the least disturbed view of each call. Sums and medians taken
/// over it repeat far better from run to run than any per-repetition total.
pub fn min_per_position<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut rows = rows.into_iter();
    let mut out = rows.next().map(<[f64]>::to_vec).unwrap_or_default();
    for row in rows {
        assert_eq!(row.len(), out.len(), "repetitions time the same calls");
        for (o, v) in out.iter_mut().zip(row) {
            *o = o.min(*v);
        }
    }
    out
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the benchmark's bounds are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Exclusive method, as Python's `statistics.quantiles(values, n=4)`.
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med.abs()
    }
}

/// 64-bit FNV-1a over a stream of `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in, byte by byte.
    pub fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mad_and_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn min_per_position_is_elementwise() {
        let rows = [vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 5.5]];
        assert_eq!(
            min_per_position(rows.iter().map(Vec::as_slice)),
            vec![2.0, 1.0, 5.0]
        );
    }

    #[test]
    fn iqr_matches_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn fnv_depends_on_order() {
        let mut a = Fnv::default();
        a.write(1);
        a.write(2);
        let mut b = Fnv::default();
        b.write(2);
        b.write(1);
        assert_ne!(a.finish(), b.finish());
    }
}
