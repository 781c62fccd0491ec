//! Computation-graph operation set.

use crate::params::{LookupId, ParamId};

/// The operation performed by a graph node.
///
/// This is the operation vocabulary of the workspace's dynamic nets — the
/// "limited number of neural network operation types" the paper's CISC
/// argument relies on (§III-B2). Each variant lists its expected argument
/// count; [`crate::Graph`] validates arities and shapes at construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Leaf: a user-supplied input vector (word vector, feature, constant).
    Input {
        /// The literal input values.
        values: Vec<f32>,
    },
    /// Leaf: row `index` of embedding table `table`.
    Lookup {
        /// The lookup table.
        table: LookupId,
        /// Row index within the table.
        index: usize,
    },
    /// `y = W x` — the recurring weight-matrix product VPPS specializes.
    /// One argument (the input vector).
    MatVec {
        /// The weight matrix.
        w: ParamId,
    },
    /// `y = x + b` with `b` a bias-row parameter. One argument.
    AddBias {
        /// The bias row.
        b: ParamId,
    },
    /// `y = a + b`, element-wise. Two arguments.
    Add,
    /// `y = a - b`, element-wise. Two arguments.
    Sub,
    /// `y = Σ args`, element-wise over ≥1 equal-length arguments.
    Sum,
    /// `y = a ⊙ b`, element-wise product. Two arguments.
    CwiseMult,
    /// `y = tanh(x)`. One argument.
    Tanh,
    /// `y = σ(x)`. One argument.
    Sigmoid,
    /// `y = max(0, x)`. One argument.
    Relu,
    /// Concatenation of the argument vectors in order. ≥1 arguments.
    Concat,
    /// `y = -log softmax(x)[label]`, a scalar. One argument.
    PickNegLogSoftmax {
        /// The gold class index.
        label: usize,
    },
}

/// Coarse operation classification used for *batching signatures*: DyNet's
/// on-the-fly batching groups nodes that share a kind (and, for parameterized
/// ops, the same parameter) into one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Input or lookup leaf.
    Leaf,
    /// Weight-matrix product with a specific parameter.
    MatVec(ParamId),
    /// Bias addition with a specific parameter.
    AddBias(ParamId),
    /// Element-wise binary add.
    Add,
    /// Element-wise binary subtract.
    Sub,
    /// N-ary element-wise sum.
    Sum,
    /// Element-wise product.
    CwiseMult,
    /// Tanh activation.
    Tanh,
    /// Sigmoid activation.
    Sigmoid,
    /// ReLU activation.
    Relu,
    /// Concatenation.
    Concat,
    /// Classification loss.
    PickNegLogSoftmax,
}

impl Op {
    /// The batching signature of this operation (paper §II "grouping similar
    /// *ready-to-be-executed* nodes").
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Input { .. } | Op::Lookup { .. } => OpKind::Leaf,
            Op::MatVec { w } => OpKind::MatVec(*w),
            Op::AddBias { b } => OpKind::AddBias(*b),
            Op::Add => OpKind::Add,
            Op::Sub => OpKind::Sub,
            Op::Sum => OpKind::Sum,
            Op::CwiseMult => OpKind::CwiseMult,
            Op::Tanh => OpKind::Tanh,
            Op::Sigmoid => OpKind::Sigmoid,
            Op::Relu => OpKind::Relu,
            Op::Concat => OpKind::Concat,
            Op::PickNegLogSoftmax { .. } => OpKind::PickNegLogSoftmax,
        }
    }

    /// The dense parameter this op reads, if any.
    pub fn param(&self) -> Option<ParamId> {
        match self {
            Op::MatVec { w } => Some(*w),
            Op::AddBias { b } => Some(*b),
            _ => None,
        }
    }

    /// Short mnemonic for traces and generated kernel source.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Lookup { .. } => "lookup",
            Op::MatVec { .. } => "matvec",
            Op::AddBias { .. } => "add_bias",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Sum => "sum",
            Op::CwiseMult => "cwise_mult",
            Op::Tanh => "tanh",
            Op::Sigmoid => "sigmoid",
            Op::Relu => "relu",
            Op::Concat => "concat",
            Op::PickNegLogSoftmax { .. } => "pick_nls",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_distinguish_parameters() {
        let a = Op::MatVec { w: ParamId(0) };
        let b = Op::MatVec { w: ParamId(1) };
        assert_ne!(a.kind(), b.kind());
        assert_eq!(a.kind(), Op::MatVec { w: ParamId(0) }.kind());
    }

    #[test]
    fn kinds_ignore_labels() {
        let a = Op::PickNegLogSoftmax { label: 0 };
        let b = Op::PickNegLogSoftmax { label: 3 };
        assert_eq!(a.kind(), b.kind());
    }

    #[test]
    fn param_extraction() {
        assert_eq!(Op::MatVec { w: ParamId(7) }.param(), Some(ParamId(7)));
        assert_eq!(Op::AddBias { b: ParamId(3) }.param(), Some(ParamId(3)));
        assert_eq!(Op::Tanh.param(), None);
    }
}
