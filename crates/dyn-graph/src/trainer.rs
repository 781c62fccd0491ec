//! SGD parameter updates.

use vpps_tensor::ops::sgd_step;

use crate::params::Model;

/// Plain stochastic gradient descent with optional L2 weight decay — the
/// update rule the paper's `hndl.fb()` fuses into the persistent kernel's
/// epilogue ("application of gradients onto the master copy of parameters",
/// §III-A2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trainer {
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 weight-decay coefficient (0 disables decay).
    pub weight_decay: f32,
}

impl Trainer {
    /// Creates a trainer with the given learning rate and no weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not finite and positive.
    pub fn new(learning_rate: f32) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        Self {
            learning_rate,
            weight_decay: 0.0,
        }
    }

    /// Sets the weight-decay coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `weight_decay` is negative or non-finite.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(
            weight_decay.is_finite() && weight_decay >= 0.0,
            "weight decay must be >= 0"
        );
        self.weight_decay = weight_decay;
        self
    }

    /// Applies `value -= lr * (grad + decay * value)` to every dense
    /// parameter and lookup table, then zeroes all gradients.
    pub fn update(&self, model: &mut Model) {
        let lr = self.learning_rate;
        let wd = self.weight_decay;
        let ids: Vec<_> = model.params().map(|(id, _)| id).collect();
        for id in ids {
            let p = model.param_mut(id);
            sgd_step(p.value.as_mut_slice(), p.grad.as_slice(), lr, wd);
            p.grad.fill_zero();
        }
        let lids: Vec<_> = model.lookups().map(|(id, _)| id).collect();
        for id in lids {
            let l = model.lookup_mut(id);
            sgd_step(l.table.as_mut_slice(), l.grad.as_slice(), lr, wd);
            l.grad.fill_zero();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::graph::Graph;

    #[test]
    fn update_moves_against_gradient() {
        let mut m = Model::new(0);
        let w = m.add_matrix("W", 1, 2);
        m.param_mut(w)
            .value
            .as_mut_slice()
            .copy_from_slice(&[1.0, 1.0]);
        m.param_mut(w)
            .grad
            .as_mut_slice()
            .copy_from_slice(&[0.5, -0.5]);
        Trainer::new(0.1).update(&mut m);
        let v = m.param(w).value.as_slice();
        assert!((v[0] - 0.95).abs() < 1e-6);
        assert!((v[1] - 1.05).abs() < 1e-6);
    }

    #[test]
    fn update_zeroes_gradients() {
        let mut m = Model::new(0);
        let w = m.add_matrix("W", 2, 2);
        m.param_mut(w).grad.as_mut_slice().fill(1.0);
        Trainer::new(0.1).update(&mut m);
        assert!(m.param(w).grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut m = Model::new(0);
        let w = m.add_matrix("W", 1, 1);
        m.param_mut(w).value[(0, 0)] = 2.0;
        Trainer::new(0.5).with_weight_decay(0.1).update(&mut m);
        // 2.0 - 0.5 * (0 + 0.1 * 2.0) = 1.9
        assert!((m.param(w).value[(0, 0)] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn sgd_descends_a_toy_loss() {
        let mut m = Model::new(11);
        let w = m.add_matrix("W", 3, 4);
        let b = m.add_bias("b", 3);
        let trainer = Trainer::new(0.5);
        let loss_of = |m: &mut Model| {
            let mut g = Graph::new();
            let x = g.input(vec![0.1, 0.9, -0.4, 0.2]);
            let h = g.affine(m, w, b, x);
            let l = g.pick_neg_log_softmax(h, 1);
            exec::forward_backward(&g, m, l)
        };
        let first = loss_of(&mut m);
        for _ in 0..50 {
            trainer.update(&mut m);
            loss_of(&mut m);
        }
        trainer.update(&mut m);
        let last = loss_of(&mut m);
        assert!(
            last < first * 0.2,
            "loss should shrink substantially: first {first}, last {last}"
        );
    }

    #[test]
    fn lookup_tables_are_updated_too() {
        let mut m = Model::new(12);
        let e = m.add_lookup("E", 4, 2);
        let before = m.lookup(e).table.clone();
        m.lookup_mut(e).grad.row_mut(1).fill(1.0);
        Trainer::new(0.1).update(&mut m);
        let after = &m.lookup(e).table;
        assert!((after[(1, 0)] - (before[(1, 0)] - 0.1)).abs() < 1e-6);
        assert_eq!(after[(0, 0)], before[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_learning_rate_rejected() {
        let _ = Trainer::new(0.0);
    }
}
