//! Model parameter collection.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;

use vpps_tensor::{init, Matrix};

/// Identifier of a dense parameter (weight matrix or bias row) in a
/// [`Model`]. These are the parameters VPPS caches in registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) u32);

impl ParamId {
    /// Raw index into the model's parameter list.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index. The caller is responsible for
    /// pairing it with the model it came from.
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

/// Identifier of an embedding lookup table. Lookup tables are accessed
/// sparsely (one row per token) and are *not* register-cached, matching the
/// paper's focus on recurring weight matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LookupId(pub(crate) u32);

impl LookupId {
    /// Raw index into the model's lookup-table list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense parameter: master value and its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Parameter {
    /// Name for diagnostics and kernel-source generation.
    pub name: String,
    /// Master copy of the values (lives in simulated DRAM).
    pub value: Matrix,
    /// Gradient accumulator, same shape as `value`.
    pub grad: Matrix,
}

impl Parameter {
    /// `true` if this parameter is a bias row (single-row matrix).
    pub fn is_bias(&self) -> bool {
        self.value.rows() == 1
    }
}

/// An embedding lookup table: `vocab` rows of dimension `dim`.
#[derive(Debug, Clone)]
pub struct LookupParameter {
    /// Name for diagnostics.
    pub name: String,
    /// `vocab × dim` table.
    pub table: Matrix,
    /// Dense gradient accumulator (rows untouched by a batch stay zero).
    pub grad: Matrix,
}

/// The parameter collection shared by every computation graph of a model —
/// DyNet's `ParameterCollection`.
///
/// Construction is seeded and deterministic; see [`Model::new`].
#[derive(Clone)]
pub struct Model {
    params: Vec<Parameter>,
    lookups: Vec<LookupParameter>,
    rng: StdRng,
    stamp: u64,
}

/// A new stamp: one counter for the whole process, so no two draws agree.
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Relaxed: a stamp publishes no other data, and every order keeps the
    // read-modify-writes of one atomic distinct.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Every field but the stamp, which names a state of this process rather
/// than a value.
impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Model")
            .field("params", &self.params)
            .field("lookups", &self.lookups)
            .field("rng", &self.rng)
            .finish_non_exhaustive()
    }
}

impl Model {
    /// Creates an empty model whose initializers draw from a seeded RNG.
    pub fn new(seed: u64) -> Self {
        Self {
            params: Vec::new(),
            lookups: Vec::new(),
            rng: init::seeded_rng(seed),
            stamp: fresh_stamp(),
        }
    }

    /// Names the current dense parameter values: two models with one stamp
    /// hold equal [`Parameter::value`]s. [`Model::new`], [`Model::add_matrix`],
    /// [`Model::add_bias`], [`Model::param_mut`] and [`Model::params_mut`] —
    /// every way to create or change a dense value — draw a fresh stamp,
    /// unique in the process; a clone keeps its source's, as its values are
    /// equal. A cache of the values (the VPPS register arena) compares
    /// stamps to skip a copy. The stamp is not part of any value, output or
    /// saved model.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Adds a Glorot-initialized `rows × cols` weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn add_matrix(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        let value = init::glorot_uniform(rows, cols, &mut self.rng);
        let grad = Matrix::zeros(rows, cols);
        self.stamp = fresh_stamp();
        self.params.push(Parameter {
            name: name.to_owned(),
            value,
            grad,
        });
        ParamId((self.params.len() - 1) as u32)
    }

    /// Adds a zero-initialized bias row of length `len` (stored `1 × len`).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn add_bias(&mut self, name: &str, len: usize) -> ParamId {
        let value = Matrix::zeros(1, len);
        let grad = Matrix::zeros(1, len);
        self.stamp = fresh_stamp();
        self.params.push(Parameter {
            name: name.to_owned(),
            value,
            grad,
        });
        ParamId((self.params.len() - 1) as u32)
    }

    /// Adds a uniformly initialized `vocab × dim` embedding table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn add_lookup(&mut self, name: &str, vocab: usize, dim: usize) -> LookupId {
        let table = init::uniform(vocab, dim, 0.1, &mut self.rng);
        let grad = Matrix::zeros(vocab, dim);
        self.lookups.push(LookupParameter {
            name: name.to_owned(),
            table,
            grad,
        });
        LookupId((self.lookups.len() - 1) as u32)
    }

    /// Borrows a dense parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn param(&self, id: ParamId) -> &Parameter {
        &self.params[id.index()]
    }

    /// Mutably borrows a dense parameter, drawing a fresh [`Model::stamp`].
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn param_mut(&mut self, id: ParamId) -> &mut Parameter {
        self.stamp = fresh_stamp();
        &mut self.params[id.index()]
    }

    /// Mutably borrows every dense parameter at once, indexed by
    /// [`ParamId::index`], drawing a fresh [`Model::stamp`].
    pub fn params_mut(&mut self) -> &mut [Parameter] {
        self.stamp = fresh_stamp();
        &mut self.params
    }

    /// Borrows a lookup table.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn lookup(&self, id: LookupId) -> &LookupParameter {
        &self.lookups[id.index()]
    }

    /// Mutably borrows a lookup table.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn lookup_mut(&mut self, id: LookupId) -> &mut LookupParameter {
        &mut self.lookups[id.index()]
    }

    /// Iterates over `(id, parameter)` pairs.
    pub fn params(&self) -> impl Iterator<Item = (ParamId, &Parameter)> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, p)| (ParamId(i as u32), p))
    }

    /// Iterates over `(id, lookup)` pairs.
    pub fn lookups(&self) -> impl Iterator<Item = (LookupId, &LookupParameter)> {
        self.lookups
            .iter()
            .enumerate()
            .map(|(i, p)| (LookupId(i as u32), p))
    }

    /// Number of dense parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of lookup tables.
    pub fn num_lookups(&self) -> usize {
        self.lookups.len()
    }

    /// Total bytes of dense (register-cacheable) parameters — the weight
    /// footprint Table I is built from.
    pub fn dense_param_bytes(&self) -> u64 {
        self.params
            .iter()
            .map(|p| p.value.size_bytes() as u64)
            .sum()
    }

    /// Longest row (in elements) over all dense parameters — `row_max` in the
    /// paper's Eq. 1.
    pub fn max_row_len(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.value.cols())
            .max()
            .unwrap_or(0)
    }

    /// Zeroes every gradient accumulator (dense and lookup).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
        for l in &mut self.lookups {
            l.grad.fill_zero();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_registration_order() {
        let mut m = Model::new(0);
        let a = m.add_matrix("A", 2, 3);
        let b = m.add_matrix("B", 4, 4);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(m.param(a).value.rows(), 2);
        assert_eq!(m.param(b).value.cols(), 4);
    }

    #[test]
    fn seeding_makes_models_reproducible() {
        let mut m1 = Model::new(9);
        let mut m2 = Model::new(9);
        let w1 = m1.add_matrix("W", 8, 8);
        let w2 = m2.add_matrix("W", 8, 8);
        assert_eq!(m1.param(w1).value, m2.param(w2).value);
    }

    #[test]
    fn bias_is_single_row() {
        let mut m = Model::new(0);
        let b = m.add_bias("b", 16);
        assert!(m.param(b).is_bias());
        assert_eq!(m.param(b).value.cols(), 16);
        assert!(m.param(b).value.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dense_bytes_excludes_lookups() {
        let mut m = Model::new(0);
        m.add_matrix("W", 10, 10);
        m.add_lookup("E", 1000, 100);
        assert_eq!(m.dense_param_bytes(), 400);
    }

    #[test]
    fn max_row_len_over_params() {
        let mut m = Model::new(0);
        m.add_matrix("A", 100, 32);
        m.add_matrix("B", 2, 257);
        m.add_bias("b", 64);
        assert_eq!(m.max_row_len(), 257);
    }

    #[test]
    fn zero_grads_clears_all() {
        let mut m = Model::new(0);
        let w = m.add_matrix("W", 2, 2);
        let e = m.add_lookup("E", 3, 2);
        m.param_mut(w).grad.as_mut_slice().fill(1.0);
        m.lookup_mut(e).grad.as_mut_slice().fill(1.0);
        m.zero_grads();
        assert!(m.param(w).grad.as_slice().iter().all(|&v| v == 0.0));
        assert!(m.lookup(e).grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn adding_or_borrowing_a_parameter_mutably_draws_a_fresh_stamp() {
        let mut m = Model::new(0);
        let mut seen = vec![m.stamp()];
        let w = m.add_matrix("W", 2, 2);
        seen.push(m.stamp());
        m.add_bias("b", 2);
        seen.push(m.stamp());
        m.param_mut(w);
        seen.push(m.stamp());
        m.param(w);
        let e = m.add_lookup("E", 3, 2);
        m.lookup_mut(e);
        seen.push(m.stamp());
        assert_eq!(seen[4], seen[3], "reads and lookups keep the stamp");
        seen.pop();
        let mut unique = seen.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seen.len(), "{seen:?}");
    }

    #[test]
    fn a_clone_keeps_the_stamp_and_two_models_never_share_one() {
        let mut m = Model::new(0);
        m.add_matrix("W", 2, 2);
        let copy = m.clone();
        assert_eq!(copy.stamp(), m.stamp());
        // Same seed, same values: still two models.
        let stamps: Vec<u64> = (0..64).map(|_| Model::new(0).stamp()).collect();
        let mut unique = stamps.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), stamps.len());
        assert!(!stamps.contains(&m.stamp()));
        assert!(!format!("{m:?}").contains("stamp"));
    }

    #[test]
    fn lookup_rows_match_vocab() {
        let mut m = Model::new(0);
        let e = m.add_lookup("E", 50, 8);
        assert_eq!(m.lookup(e).table.rows(), 50);
        assert_eq!(m.lookup(e).table.cols(), 8);
    }
}
