//! Forward-backward kernel specialization (paper §III-A).
//!
//! Before the training loop, VPPS builds a *kernel plan* for the model: the
//! register distribution of every weight matrix (and gradient, capacity
//! permitting), the CTA configuration, and the specialized kernel source that
//! would be handed to NVRTC. On real hardware this step exists because
//! register arrays must be indexed with compile-time literals; here the plan
//! plays the identical role — it freezes every cached element's
//! `(VPP, partition, slot)` before any batch is seen, and execution refuses
//! anything not in the plan.

pub mod cache;
pub mod jit;
pub mod source;

use std::sync::Arc;

use dyn_graph::Model;
use gpu_sim::DeviceConfig;

use crate::distribute::{DistGeometry, Distribution, ParamShape};
use crate::error::VppsError;

pub use cache::PlanCache;
pub use jit::JitCost;
pub use source::KernelSource;

/// Stable identity of one specialization: everything that determines the
/// generated kernel feeds it — parameter names and shapes, the device
/// geometry, and rows-per-warp.
///
/// The signature is the single source of truth for "same plan":
/// [`PlanCache`] keys its on-disk entries by [`PlanSignature::cache_key`],
/// and the serving layer buckets requests by the same value, so cache-hit
/// accounting and batch bucketing can never disagree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanSignature {
    plan_id: u64,
    shape_key: String,
}

impl PlanSignature {
    /// Derives the signature for `(model, device, rpw)` without building the
    /// plan.
    pub fn derive(model: &Model, device: &DeviceConfig, rpw: usize) -> Self {
        // FNV-1a over the specialization inputs; no external dependencies.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        let mut shape_key = String::new();
        for (_, p) in model.params() {
            eat(p.name.as_bytes());
            eat(&(p.value.rows() as u64).to_le_bytes());
            eat(&(p.value.cols() as u64).to_le_bytes());
            if !shape_key.is_empty() {
                shape_key.push(',');
            }
            shape_key.push_str(&format!("{}x{}", p.value.rows(), p.value.cols()));
        }
        eat(device.name.as_bytes());
        eat(&(device.num_sms as u64).to_le_bytes());
        eat(&(device.registers_per_sm as u64).to_le_bytes());
        eat(&(device.max_regs_per_thread as u64).to_le_bytes());
        eat(&(rpw as u64).to_le_bytes());
        Self {
            plan_id: h,
            shape_key,
        }
    }

    /// The 64-bit plan id (hash of every specialization input).
    pub fn plan_id(&self) -> u64 {
        self.plan_id
    }

    /// The shape bucket key: the comma-joined `rows x cols` list of every
    /// dense parameter, in registration order.
    pub fn shape_key(&self) -> &str {
        &self.shape_key
    }

    /// The string form used as the kernel-cache file stem.
    pub fn cache_key(&self) -> String {
        format!("{:016x}", self.plan_id)
    }
}

impl std::fmt::Display for PlanSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}[{}]", self.plan_id, self.shape_key)
    }
}

/// How gradients of cached matrices are accumulated (paper §III-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradStrategy {
    /// Gradients live in their own register partitions; the kernel performs
    /// in-register outer products.
    InRegister,
    /// Registers are insufficient: the kernel stages `(dy, x)` pairs in the
    /// DRAM pool and one dense GEMM per weight matrix produces the gradients
    /// (the CUBLAS fallback).
    GemmFallback,
}

/// A fully specialized forward-backward kernel plan for one model on one
/// device.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    distribution: Arc<Distribution>,
    shapes: Vec<ParamShape>,
    grad_strategy: GradStrategy,
    source: KernelSource,
    jit: JitCost,
    signature: PlanSignature,
}

impl KernelPlan {
    /// Builds a plan for `model` on `device` with the given rows-per-warp.
    ///
    /// Configuration search order follows the paper's preferences:
    /// 1. two CTAs per SM with in-register gradients (best occupancy),
    /// 2. one CTA per SM with in-register gradients (more cache capacity),
    /// 3. two CTAs per SM with the GEMM gradient fallback,
    /// 4. one CTA per SM with the GEMM gradient fallback.
    ///
    /// # Errors
    ///
    /// * [`VppsError::NoParameters`] for models with no dense parameters.
    /// * [`VppsError::ModelTooLarge`] / [`VppsError::RowTooLong`] if no
    ///   configuration fits.
    pub fn build(model: &Model, device: &DeviceConfig, rpw: usize) -> Result<Self, VppsError> {
        Self::build_inner(model, device, rpw, None)
    }

    /// Builds a plan with a *forced* gradient strategy, bypassing the
    /// automated §III-C2 decision — the gradient-strategy ablation. Still
    /// prefers two CTAs per SM when the forced strategy fits.
    ///
    /// # Errors
    ///
    /// Same as [`KernelPlan::build`]; additionally fails if the forced
    /// strategy cannot fit at all.
    pub fn build_forced(
        model: &Model,
        device: &DeviceConfig,
        rpw: usize,
        strategy: GradStrategy,
    ) -> Result<Self, VppsError> {
        Self::build_inner(model, device, rpw, Some(strategy))
    }

    fn build_inner(
        model: &Model,
        device: &DeviceConfig,
        rpw: usize,
        forced: Option<GradStrategy>,
    ) -> Result<Self, VppsError> {
        let _span = vpps_obs::span("specialize.plan_build");
        let shapes: Vec<ParamShape> = model
            .params()
            .map(|(id, p)| ParamShape {
                id,
                rows: p.value.rows(),
                cols: p.value.cols(),
            })
            .collect();
        if shapes.is_empty() {
            return Err(VppsError::NoParameters);
        }
        let row_max = model.max_row_len();

        let attempts: &[(usize, bool)] = match forced {
            None => &[(2, true), (1, true), (2, false), (1, false)],
            Some(GradStrategy::InRegister) => &[(2, true), (1, true)],
            Some(GradStrategy::GemmFallback) => &[(2, false), (1, false)],
        };
        let mut last_err = VppsError::NoParameters;
        for &(ctas_per_sm, cache_grads) in attempts {
            if vpps_obs::enabled() {
                vpps_obs::counter("specialize.config_attempts").incr();
            }
            let geometry = match DistGeometry::derive(device, ctas_per_sm, rpw, row_max) {
                Ok(g) => g,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match Distribution::build(&shapes, geometry, cache_grads) {
                Ok(distribution) => {
                    let grad_strategy = if cache_grads {
                        GradStrategy::InRegister
                    } else {
                        GradStrategy::GemmFallback
                    };
                    let source = KernelSource::generate(model, &distribution, grad_strategy);
                    let jit = JitCost::estimate(&source, &distribution);
                    if vpps_obs::enabled() {
                        vpps_obs::gauge("specialize.jit_compile_s")
                            .set(jit.program_compile.as_secs());
                    }
                    return Ok(Self {
                        distribution: Arc::new(distribution),
                        shapes,
                        grad_strategy,
                        source,
                        jit,
                        signature: PlanSignature::derive(model, device, rpw),
                    });
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Every `rpw` for which [`KernelPlan::build`] succeeds on this model —
    /// the candidate set of the profile-guided search (paper §III-A1: "rpw
    /// has a limited number of valid integer options").
    pub fn valid_rpws(model: &Model, device: &DeviceConfig) -> Vec<usize> {
        let row_max = model.max_row_len();
        if row_max == 0 {
            return Vec::new();
        }
        let upper = DistGeometry::max_rpw(device, 1, row_max).max(1);
        (1..=upper)
            .filter(|&rpw| KernelPlan::build(model, device, rpw).is_ok())
            .collect()
    }

    /// A thinned candidate set for profiling: models with short rows can
    /// have dozens of valid `rpw`s; compiling a kernel for each would blow
    /// up the one-time JIT cost, so the search keeps a geometric ladder
    /// (1, 2, 3, 4, 6, 8, 12, ...) capped at eight candidates.
    pub fn candidate_rpws(model: &Model, device: &DeviceConfig) -> Vec<usize> {
        let valid = Self::valid_rpws(model, device);
        if valid.len() <= 8 {
            return valid;
        }
        let mut out = Vec::new();
        let mut next = 1usize;
        for &rpw in &valid {
            if rpw >= next {
                out.push(rpw);
                next = (rpw * 3 / 2).max(rpw + 1);
            }
            if out.len() == 8 {
                break;
            }
        }
        out
    }

    /// The register distribution.
    pub fn distribution(&self) -> &Distribution {
        &self.distribution
    }

    /// The register distribution, for a sweep that outlives the borrow of
    /// its plan.
    pub(crate) fn shared_distribution(&self) -> Arc<Distribution> {
        Arc::clone(&self.distribution)
    }

    /// Shapes of the distributed parameters.
    pub fn shapes(&self) -> &[ParamShape] {
        &self.shapes
    }

    /// The gradient accumulation strategy chosen.
    pub fn grad_strategy(&self) -> GradStrategy {
        self.grad_strategy
    }

    /// The stable specialization signature this plan was built from.
    pub fn signature(&self) -> &PlanSignature {
        &self.signature
    }

    /// The generated specialized kernel source.
    pub fn source(&self) -> &KernelSource {
        &self.source
    }

    /// Modeled JIT compilation cost (Table II).
    pub fn jit_cost(&self) -> JitCost {
        self.jit
    }

    pub(crate) fn set_jit_cost(&mut self, jit: JitCost) {
        self.jit = jit;
    }

    /// CTAs per SM (occupancy: 2 → 25%, 1 → 12.5% on the Titan V).
    pub fn ctas_per_sm(&self) -> usize {
        self.distribution.geometry().ctas_per_sm
    }

    /// Rows per warp.
    pub fn rpw(&self) -> usize {
        self.distribution.geometry().rpw
    }

    /// Total virtual persistent processors the kernel launches.
    pub fn total_vpps(&self) -> usize {
        self.distribution.geometry().total_vpps()
    }

    /// Bytes of parameter values loaded from DRAM in the kernel prologue
    /// (master copy → registers) — the per-launch weight traffic of Table I.
    pub fn prologue_weight_bytes(&self) -> u64 {
        self.shapes
            .iter()
            .map(|s| (s.rows * s.cols * 4) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_lstm_like(hidden: usize) -> Model {
        let mut m = Model::new(7);
        for i in 0..13 {
            m.add_matrix(&format!("U{i}"), hidden, hidden);
        }
        for i in 0..5 {
            m.add_bias(&format!("b{i}"), hidden);
        }
        m.add_matrix("cls", 5, hidden);
        m
    }

    #[test]
    fn hidden_256_gets_two_ctas_with_register_grads() {
        let plan = KernelPlan::build(&tree_lstm_like(256), &DeviceConfig::titan_v(), 1).unwrap();
        assert_eq!(plan.ctas_per_sm(), 2);
        assert_eq!(plan.grad_strategy(), GradStrategy::InRegister);
        assert_eq!(plan.total_vpps(), 160);
    }

    #[test]
    fn hidden_384_falls_back_to_one_cta() {
        // Paper §IV-C: hidden 384 drops occupancy from 25% to 12.5%.
        let plan = KernelPlan::build(&tree_lstm_like(384), &DeviceConfig::titan_v(), 1).unwrap();
        assert_eq!(plan.ctas_per_sm(), 1);
        assert_eq!(plan.grad_strategy(), GradStrategy::InRegister);
    }

    #[test]
    fn oversized_model_uses_gemm_fallback() {
        // Enough 512-wide matrices that value+grad chunks exceed one-CTA
        // capacity but values alone fit.
        let mut m = Model::new(0);
        for i in 0..9 {
            m.add_matrix(&format!("W{i}"), 512, 512);
        }
        let plan = KernelPlan::build(&m, &DeviceConfig::titan_v(), 1).unwrap();
        assert_eq!(plan.grad_strategy(), GradStrategy::GemmFallback);
        assert!(plan
            .distribution()
            .grad_chunks_of(dyn_graph::ParamId::from_index(0))
            .is_empty());
    }

    #[test]
    fn empty_model_is_rejected() {
        let m = Model::new(0);
        assert_eq!(
            KernelPlan::build(&m, &DeviceConfig::titan_v(), 1).unwrap_err(),
            VppsError::NoParameters
        );
    }

    #[test]
    fn valid_rpws_form_a_contiguous_range_from_one() {
        let m = tree_lstm_like(256);
        let rpws = KernelPlan::valid_rpws(&m, &DeviceConfig::titan_v());
        assert!(!rpws.is_empty());
        assert_eq!(rpws[0], 1);
        for w in rpws.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        // 256-long rows, one CTA: 192/8 = 24 max by budget.
        assert!(*rpws.last().unwrap() <= 24);
    }

    #[test]
    fn prologue_bytes_equal_dense_param_bytes() {
        let m = tree_lstm_like(256);
        let plan = KernelPlan::build(&m, &DeviceConfig::titan_v(), 1).unwrap();
        assert_eq!(plan.prologue_weight_bytes(), m.dense_param_bytes());
    }

    #[test]
    fn signature_is_stable_and_discriminating() {
        let m = tree_lstm_like(256);
        let dev = DeviceConfig::titan_v();
        let sig = PlanSignature::derive(&m, &dev, 1);
        assert_eq!(sig, PlanSignature::derive(&m, &dev, 1));
        assert_ne!(sig, PlanSignature::derive(&m, &dev, 2), "rpw feeds the id");
        assert_ne!(
            sig,
            PlanSignature::derive(&tree_lstm_like(384), &dev, 1),
            "shapes feed the id"
        );
        assert!(sig.shape_key().contains("256x256"));
        assert_eq!(sig.cache_key(), format!("{:016x}", sig.plan_id()));
    }

    #[test]
    fn built_plan_carries_its_signature() {
        let m = tree_lstm_like(256);
        let dev = DeviceConfig::titan_v();
        let plan = KernelPlan::build(&m, &dev, 2).unwrap();
        assert_eq!(plan.signature(), &PlanSignature::derive(&m, &dev, 2));
    }

    #[test]
    fn larger_rpw_means_fewer_bigger_chunks() {
        let m = tree_lstm_like(256);
        let p1 = KernelPlan::build(&m, &DeviceConfig::titan_v(), 1).unwrap();
        let p4 = KernelPlan::build(&m, &DeviceConfig::titan_v(), 4).unwrap();
        assert!(p4.distribution().used_slots() < p1.distribution().used_slots());
    }
}
