//! Operation scheduling and script generation (paper §III-B1, Fig. 6).
//!
//! The generator walks the level-sorted super-graph forward and then in
//! reverse, encoding one CISC instruction per operation (or one per cached
//! chunk, for weight-matrix operations, since the matrix is spread over many
//! virtual processors). Within a level, instructions without a pinned home
//! (element-wise ops, copies) go to the virtual processor with the minimum
//! accumulated load; matrix-chunk instructions are pinned to the chunk's
//! owner. Consecutive non-empty levels are separated by one barrier:
//! every participant of level *l* signals it and every participant of the
//! next non-empty level waits on it, establishing the transitive
//! producer-consumer chain the paper describes.

use std::collections::BTreeMap;

use dyn_graph::{Graph, LookupId, NodeId, Op};
use vpps_tensor::{Pool, PoolOffset};

use crate::distribute::Distribution;
use crate::error::VppsError;
use crate::script::isa::{Instr, ScriptSet};
use crate::specialize::{GradStrategy, KernelPlan};

/// Pool placement of batch-invariant residents: embedding tables and the
/// constant `1.0` used to seed the loss derivative. Built once by the handle,
/// below the pool's persistent floor.
#[derive(Debug, Clone)]
pub struct TableLayout {
    bases: Vec<PoolOffset>,
    dims: Vec<(usize, usize)>,
    const_one: PoolOffset,
}

impl TableLayout {
    /// Lays the tables of `model` plus the constant one into `pool` and
    /// freezes the pool floor beneath them.
    ///
    /// # Errors
    ///
    /// Returns [`VppsError::PoolExhausted`] if the pool cannot hold the
    /// tables.
    pub fn install(model: &dyn_graph::Model, pool: &mut Pool) -> Result<Self, VppsError> {
        let mut bases = Vec::new();
        let mut dims = Vec::new();
        for (_, lp) in model.lookups() {
            let len = lp.table.len();
            let base = pool.alloc(len).map_err(|_| VppsError::PoolExhausted {
                requested: len,
                capacity: pool.capacity(),
            })?;
            pool.slice_mut(base, len)
                .copy_from_slice(lp.table.as_slice());
            bases.push(base);
            dims.push((lp.table.rows(), lp.table.cols()));
        }
        let const_one = pool.alloc(1).map_err(|_| VppsError::PoolExhausted {
            requested: 1,
            capacity: pool.capacity(),
        })?;
        pool.slice_mut(const_one, 1)[0] = 1.0;
        pool.freeze_floor();
        Ok(Self {
            bases,
            dims,
            const_one,
        })
    }

    /// Re-writes the resident table values from `model` (after a parameter
    /// update touched the embeddings).
    pub fn refresh(&self, model: &dyn_graph::Model, pool: &mut Pool) {
        for ((_, lp), base) in model.lookups().zip(&self.bases) {
            pool.slice_mut(*base, lp.table.len())
                .copy_from_slice(lp.table.as_slice());
        }
    }

    /// Offset of row `index` of `table`.
    ///
    /// # Panics
    ///
    /// Panics if the table or index is out of range.
    pub fn row_offset(&self, table: LookupId, index: usize) -> PoolOffset {
        let (vocab, dim) = self.dims[table.index()];
        assert!(index < vocab, "lookup index out of range");
        PoolOffset(self.bases[table.index()].raw() + (index * dim) as u32)
    }

    /// Offset of the resident constant `1.0`.
    pub fn const_one(&self) -> PoolOffset {
        self.const_one
    }

    /// First pool offset above the batch-invariant residents: every offset
    /// strictly below this is an embedding-table row or the resident
    /// constant (the layout allocates tables first, then the constant, then
    /// freezes the floor). Copies that read below this floor are the
    /// per-request literals the structural script fingerprint masks out.
    pub fn persistent_floor(&self) -> u32 {
        self.const_one.raw() + 1
    }
}

/// Staging region for one parameter's GEMM-fallback gradient (paper §III-C2):
/// the `(dy, x)` operand vectors of every outer product are concatenated in
/// DRAM and multiplied by one dense GEMM after the persistent kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamStage {
    /// Base of the concatenated `x` vectors (`None` for bias rows, whose
    /// gradient is a plain sum of the staged `dy`s).
    pub x_base: Option<PoolOffset>,
    /// Base of the concatenated `dy` vectors.
    pub dy_base: PoolOffset,
    /// Number of staged pairs.
    pub uses: usize,
    /// Parameter row count.
    pub rows: usize,
    /// Parameter column count.
    pub cols: usize,
}

/// Per-batch pool layout produced alongside the scripts.
#[derive(Debug, Clone)]
pub struct BatchLayout {
    /// Forward value offset of every node.
    pub value_off: Vec<PoolOffset>,
    /// Derivative offset of every node.
    pub deriv_off: Vec<PoolOffset>,
    /// Start of the contiguous derivative region (memset target).
    pub deriv_base: PoolOffset,
    /// Length of the derivative region in elements.
    pub deriv_len: usize,
    /// The loss node this batch backpropagates from.
    pub loss: NodeId,
    /// GEMM-fallback staging regions, indexed by parameter index.
    pub stages: Vec<Option<ParamStage>>,
}

/// The generated per-batch artifact: scripts plus layout plus scheduling
/// statistics.
#[derive(Debug, Clone)]
pub struct GeneratedScript {
    /// Per-VPP instruction streams.
    pub scripts: ScriptSet,
    /// Pool layout for this batch.
    pub layout: BatchLayout,
    /// Barriers allocated.
    pub num_barriers: u32,
    /// Compute instructions emitted during forward traversal.
    pub forward_instructions: usize,
    /// Compute instructions emitted during backward traversal.
    pub backward_instructions: usize,
    /// Final accumulated load metric per VPP (load-balance diagnostics).
    pub vpp_loads: Vec<f64>,
    /// The table layout's [`TableLayout::persistent_floor`] at generation
    /// time: offsets below it are batch-invariant residents. Carried here so
    /// downstream passes (structural fingerprinting, literal patching) don't
    /// need the layout itself.
    pub persistent_floor: u32,
}

/// Relative cost of matrix-chunk instructions in the load-balancing metric —
/// the paper associates "a relatively higher load for operations related to
/// the cached matrices" than their read size alone.
const MATRIX_LOAD_WEIGHT: f64 = 0.5;

/// How unpinned instructions are assigned to virtual processors.
///
/// The paper "dynamically targets the virtual processor with the minimum
/// load" ([`SchedulePolicy::MinLoad`]); [`SchedulePolicy::RoundRobin`] is
/// the ablation alternative that ignores accumulated load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Assign each unpinned instruction to the least-loaded VPP (paper
    /// §III-B1).
    #[default]
    MinLoad,
    /// Assign unpinned instructions cyclically, ignoring load.
    RoundRobin,
}

struct Emitter<'a> {
    dist: &'a Distribution,
    loads: Vec<f64>,
    /// The open level's body per VPP. The buffers live as long as the
    /// emitter; [`Emitter::flush_level`] drains the touched ones.
    level: Vec<Vec<Instr>>,
    /// VPPs with a non-empty body in the open level, in first-emit order.
    touched: Vec<usize>,
    policy: SchedulePolicy,
    rr_next: usize,
}

impl<'a> Emitter<'a> {
    fn new(dist: &'a Distribution, policy: SchedulePolicy) -> Self {
        let vpps = dist.geometry().total_vpps();
        Self {
            dist,
            loads: vec![0.0; vpps],
            level: vec![Vec::new(); vpps],
            touched: Vec::new(),
            policy,
            rr_next: 0,
        }
    }

    fn instr_load(&self, instr: &Instr) -> f64 {
        match instr {
            Instr::MatVecChunk { chunk, .. }
            | Instr::TMatVecChunk { chunk, .. }
            | Instr::OuterChunk { chunk, .. } => {
                self.dist.chunk(*chunk).len() as f64 * MATRIX_LOAD_WEIGHT
            }
            Instr::AddBiasChunk { len, .. } | Instr::BiasGradChunk { len, .. } => f64::from(*len),
            Instr::Tanh { len, .. }
            | Instr::Sigmoid { len, .. }
            | Instr::Relu { len, .. }
            | Instr::Copy { len, .. }
            | Instr::AccAdd { len, .. }
            | Instr::PickNls { len, .. } => f64::from(*len),
            Instr::Add { len, .. }
            | Instr::Sub { len, .. }
            | Instr::AccSub { len, .. }
            | Instr::MulAcc { len, .. }
            | Instr::CwiseMult { len, .. }
            | Instr::TanhBwd { len, .. }
            | Instr::SigmoidBwd { len, .. }
            | Instr::ReluBwd { len, .. }
            | Instr::PickNlsBwd { len, .. } => 2.0 * f64::from(*len),
            Instr::Signal { .. } | Instr::Wait { .. } => 0.0,
        }
    }

    /// Emits to a pinned VPP.
    fn emit_pinned(&mut self, vpp: usize, instr: Instr) {
        self.loads[vpp] += self.instr_load(&instr);
        let body = &mut self.level[vpp];
        if body.is_empty() {
            self.touched.push(vpp);
        }
        body.push(instr);
    }

    /// Emits to the VPP chosen by the scheduling policy, returning the
    /// choice.
    fn emit_balanced(&mut self, instr: Instr) -> usize {
        let vpp = match self.policy {
            SchedulePolicy::MinLoad => self
                .loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("at least one VPP"),
            SchedulePolicy::RoundRobin => {
                let v = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.loads.len();
                v
            }
        };
        self.emit_pinned(vpp, instr);
        vpp
    }

    /// Closes the current level: flushes its per-VPP bodies into `scripts`
    /// with the barrier protocol. Returns the updated `(last_barrier,
    /// participants)` state.
    fn flush_level(
        &mut self,
        scripts: &mut ScriptSet,
        next_barrier: &mut u32,
        last: Option<(u32, u32)>,
    ) -> Option<(u32, u32)> {
        if self.touched.is_empty() {
            return last;
        }
        let barrier = *next_barrier;
        *next_barrier += 1;
        let participants = self.touched.len() as u32;
        // Scripts are per VPP, so the flush order cannot change one; ascending
        // keeps the walk the same as over a map keyed by VPP.
        self.touched.sort_unstable();
        for vpp in self.touched.drain(..) {
            if let Some((b, needed)) = last {
                scripts.push(vpp, Instr::Wait { barrier: b, needed });
            }
            for instr in self.level[vpp].drain(..) {
                scripts.push(vpp, instr);
            }
            scripts.push(vpp, Instr::Signal { barrier });
        }
        Some((barrier, participants))
    }
}

fn alloc(pool: &mut Pool, len: usize) -> Result<PoolOffset, VppsError> {
    pool.alloc(len).map_err(|_| VppsError::PoolExhausted {
        requested: len,
        capacity: pool.capacity(),
    })
}

/// Generates the execution scripts for one batch super-graph.
///
/// `loss` must be a scalar node of `graph`. The pool must already hold the
/// resident [`TableLayout`] beneath its floor and be reset for this batch.
///
/// # Errors
///
/// Returns [`VppsError::PoolExhausted`] if the batch does not fit the pool.
pub fn generate(
    graph: &Graph,
    loss: NodeId,
    plan: &KernelPlan,
    pool: &mut Pool,
    tables: &TableLayout,
) -> Result<GeneratedScript, VppsError> {
    generate_with_policy(graph, loss, plan, pool, tables, SchedulePolicy::MinLoad)
}

/// [`generate`] with an explicit unpinned-instruction scheduling policy
/// (the min-load vs round-robin ablation).
///
/// # Errors
///
/// Returns [`VppsError::PoolExhausted`] if the batch does not fit the pool.
pub fn generate_with_policy(
    graph: &Graph,
    loss: NodeId,
    plan: &KernelPlan,
    pool: &mut Pool,
    tables: &TableLayout,
    policy: SchedulePolicy,
) -> Result<GeneratedScript, VppsError> {
    generate_inner(graph, loss, plan, pool, tables, policy, true)
}

/// Generates a *forward-only* script: no derivative work, no gradient
/// staging, no loss-derivative seeding. Used by [`crate::Handle::infer`]
/// for persistent-kernel inference; `root` is the node whose value the
/// caller wants (any node, not necessarily a scalar loss).
///
/// # Errors
///
/// Returns [`VppsError::PoolExhausted`] if the batch does not fit the pool.
pub fn generate_forward_only(
    graph: &Graph,
    root: NodeId,
    plan: &KernelPlan,
    pool: &mut Pool,
    tables: &TableLayout,
) -> Result<GeneratedScript, VppsError> {
    generate_inner(
        graph,
        root,
        plan,
        pool,
        tables,
        SchedulePolicy::MinLoad,
        false,
    )
}

fn generate_inner(
    graph: &Graph,
    loss: NodeId,
    plan: &KernelPlan,
    pool: &mut Pool,
    tables: &TableLayout,
    policy: SchedulePolicy,
    backward: bool,
) -> Result<GeneratedScript, VppsError> {
    let _span = vpps_obs::span("script.generate");
    assert!(
        !backward || graph.node(loss).dim == 1,
        "loss must be a scalar node for backward generation"
    );
    let dist = plan.distribution();

    // ---- pool layout: values, then a contiguous derivative region.
    let mut value_off = Vec::with_capacity(graph.len());
    for (_, node) in graph.iter() {
        value_off.push(alloc(pool, node.dim)?);
    }
    let deriv_start = pool.used();
    let mut deriv_off = Vec::with_capacity(graph.len());
    if backward {
        for (_, node) in graph.iter() {
            deriv_off.push(alloc(pool, node.dim)?);
        }
    } else {
        deriv_off = vec![PoolOffset(deriv_start as u32); graph.len()];
    }
    let deriv_base = PoolOffset(deriv_start as u32);
    let deriv_len = pool.used() - deriv_start;

    // ---- GEMM-fallback staging layout (backward only).
    let fallback = backward && plan.grad_strategy() == GradStrategy::GemmFallback;
    let mut stages: Vec<Option<ParamStage>> = Vec::new();
    let mut stage_slot: Vec<Option<(usize, usize)>> = vec![None; graph.len()];
    if fallback {
        let mut uses: BTreeMap<usize, (usize, usize, usize, bool)> = BTreeMap::new();
        for (id, node) in graph.iter() {
            let (pidx, rows, cols, is_bias) = match &node.op {
                Op::MatVec { w } => {
                    let shape = plan
                        .shapes()
                        .iter()
                        .find(|s| s.id == *w)
                        .expect("matvec parameter in plan");
                    (w.index(), shape.rows, shape.cols, false)
                }
                Op::AddBias { b } => {
                    let shape = plan
                        .shapes()
                        .iter()
                        .find(|s| s.id == *b)
                        .expect("bias parameter in plan");
                    (b.index(), shape.rows, shape.cols, true)
                }
                _ => continue,
            };
            let entry = uses.entry(pidx).or_insert((0, rows, cols, is_bias));
            stage_slot[id.index()] = Some((pidx, entry.0));
            entry.0 += 1;
        }
        let max_pidx = uses.keys().max().copied().unwrap_or(0);
        stages = vec![None; max_pidx + 1];
        for (pidx, (count, rows, cols, is_bias)) in uses {
            let x_base = if is_bias {
                None
            } else {
                Some(alloc(pool, cols * count)?)
            };
            let dy_len = if is_bias { cols * count } else { rows * count };
            let dy_base = alloc(pool, dy_len)?;
            stages[pidx] = Some(ParamStage {
                x_base,
                dy_base,
                uses: count,
                rows,
                cols,
            });
        }
    }

    // ---- traversal.
    let levels = dyn_graph::levels::level_sort(graph);
    let mut emitter = Emitter::new(dist, policy);
    let mut scripts = ScriptSet::new(dist.geometry().total_vpps());
    let mut next_barrier = 0u32;
    let mut last: Option<(u32, u32)> = None;
    let mut forward_instructions = 0usize;
    let mut backward_instructions = 0usize;
    // The loss derivative is seeded where its first reader runs — except for
    // a loss whose backward readers sit on VPPs the seed cannot follow
    // (chunk-pinned, or each balanced on its own). Those are seeded in the
    // loss node's forward level, whose barrier orders the seed before them.
    let seed_in_forward = backward
        && matches!(
            graph.node(loss).op,
            Op::MatVec { .. }
                | Op::AddBias { .. }
                | Op::CwiseMult
                | Op::Tanh
                | Op::Sigmoid
                | Op::Relu
        );

    for level in levels.iter() {
        for &id in level {
            let node = graph.node(id);
            let y = value_off[id.index()];
            match &node.op {
                Op::Input { .. } => {} // pre-copied host-to-device
                Op::Lookup { table, index } => {
                    emitter.emit_balanced(Instr::Copy {
                        len: node.dim as u32,
                        src: tables.row_offset(*table, *index),
                        dst: y,
                    });
                    forward_instructions += 1;
                }
                Op::MatVec { w } => {
                    let x = value_off[node.args[0].index()];
                    for cid in dist.value_chunks_of(*w) {
                        let c = dist.chunk(*cid);
                        emitter.emit_pinned(
                            c.vpp,
                            Instr::MatVecChunk {
                                chunk: *cid,
                                len: c.cols as u32,
                                x,
                                y,
                            },
                        );
                        forward_instructions += 1;
                    }
                    if fallback {
                        // Stage x while it is hot; dy is staged in backward.
                        let (pidx, slot) = stage_slot[id.index()].expect("staged matvec");
                        let st = stages[pidx].as_ref().expect("stage exists");
                        let cols = st.cols;
                        let dst = PoolOffset(
                            st.x_base.expect("matrix stage has x").raw() + (slot * cols) as u32,
                        );
                        emitter.emit_balanced(Instr::Copy {
                            len: cols as u32,
                            src: x,
                            dst,
                        });
                        forward_instructions += 1;
                    }
                }
                Op::AddBias { b } => {
                    let x = value_off[node.args[0].index()];
                    let cid = dist.value_chunks_of(*b)[0];
                    let c = dist.chunk(cid);
                    emitter.emit_pinned(
                        c.vpp,
                        Instr::AddBiasChunk {
                            chunk: cid,
                            len: node.dim as u32,
                            x,
                            y,
                        },
                    );
                    forward_instructions += 1;
                }
                Op::Add => {
                    emitter.emit_balanced(Instr::Add {
                        len: node.dim as u32,
                        a: value_off[node.args[0].index()],
                        b: value_off[node.args[1].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Sub => {
                    emitter.emit_balanced(Instr::Sub {
                        len: node.dim as u32,
                        a: value_off[node.args[0].index()],
                        b: value_off[node.args[1].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Sum => {
                    // Sequential accumulation on one VPP (destination starts
                    // zeroed by the pool).
                    let first = emitter.emit_balanced(Instr::AccAdd {
                        len: node.dim as u32,
                        x: value_off[node.args[0].index()],
                        y,
                    });
                    for arg in &node.args[1..] {
                        emitter.emit_pinned(
                            first,
                            Instr::AccAdd {
                                len: node.dim as u32,
                                x: value_off[arg.index()],
                                y,
                            },
                        );
                    }
                    forward_instructions += node.args.len();
                }
                Op::CwiseMult => {
                    emitter.emit_balanced(Instr::CwiseMult {
                        len: node.dim as u32,
                        a: value_off[node.args[0].index()],
                        b: value_off[node.args[1].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Tanh => {
                    emitter.emit_balanced(Instr::Tanh {
                        len: node.dim as u32,
                        x: value_off[node.args[0].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Sigmoid => {
                    emitter.emit_balanced(Instr::Sigmoid {
                        len: node.dim as u32,
                        x: value_off[node.args[0].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Relu => {
                    emitter.emit_balanced(Instr::Relu {
                        len: node.dim as u32,
                        x: value_off[node.args[0].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Concat => {
                    // Pieces write disjoint destinations; keep them on one VPP
                    // so a single barrier covers them.
                    let mut off = 0u32;
                    let mut home = None;
                    for arg in &node.args {
                        let alen = graph.node(*arg).dim as u32;
                        let instr = Instr::Copy {
                            len: alen,
                            src: value_off[arg.index()],
                            dst: PoolOffset(y.raw() + off),
                        };
                        match home {
                            None => home = Some(emitter.emit_balanced(instr)),
                            Some(v) => emitter.emit_pinned(v, instr),
                        }
                        off += alen;
                    }
                    forward_instructions += node.args.len();
                }
                Op::PickNegLogSoftmax { label } => {
                    emitter.emit_balanced(Instr::PickNls {
                        len: graph.node(node.args[0]).dim as u32,
                        x: value_off[node.args[0].index()],
                        out: y,
                        label: *label as u32,
                    });
                    forward_instructions += 1;
                }
            }
            if seed_in_forward && id == loss {
                emitter.emit_balanced(Instr::Copy {
                    len: 1,
                    src: tables.const_one(),
                    dst: deriv_off[id.index()],
                });
                backward_instructions += 1;
            }
        }
        last = emitter.flush_level(&mut scripts, &mut next_barrier, last);
    }

    // ---- backward traversal, deepest level first.
    let backward_levels: Vec<&Vec<NodeId>> = if backward {
        levels.iter_rev().collect()
    } else {
        Vec::new()
    };
    for level in backward_levels {
        for &id in level {
            let node = graph.node(id);
            let dy = deriv_off[id.index()];
            // Seed the loss derivative on whichever VPP handles the loss
            // node's backward instructions; emit it first for that node.
            let seed = if id == loss {
                Some(Instr::Copy {
                    len: 1,
                    src: tables.const_one(),
                    dst: dy,
                })
            } else {
                None
            };
            let mut seeded_home: Option<usize> = None;
            let mut emit_seeded = |em: &mut Emitter, instr: Instr| match seeded_home {
                Some(v) => em.emit_pinned(v, instr),
                None => {
                    let v = if let Some(seed_instr) = seed {
                        let v = em.emit_balanced(seed_instr);
                        em.emit_pinned(v, instr);
                        v
                    } else {
                        em.emit_balanced(instr)
                    };
                    seeded_home = Some(v);
                }
            };

            match &node.op {
                Op::Input { .. } | Op::Lookup { .. } => {
                    // Inputs need no derivative; lookup-table gradients are
                    // applied host-side from the deriv region after the
                    // kernel (sparse update outside the cached set).
                    if let Some(seed_instr) = seed {
                        emitter.emit_balanced(seed_instr);
                        backward_instructions += 1;
                    }
                }
                Op::MatVec { w } => {
                    let x_id = node.args[0];
                    let dx = deriv_off[x_id.index()];
                    for cid in dist.value_chunks_of(*w) {
                        let c = dist.chunk(*cid);
                        emitter.emit_pinned(
                            c.vpp,
                            Instr::TMatVecChunk {
                                chunk: *cid,
                                len: c.cols as u32,
                                dy,
                                dx,
                            },
                        );
                        backward_instructions += 1;
                    }
                    if fallback {
                        let (pidx, slot) = stage_slot[id.index()].expect("staged matvec");
                        let st = stages[pidx].as_ref().expect("stage exists");
                        let dst = PoolOffset(st.dy_base.raw() + (slot * st.rows) as u32);
                        emitter.emit_balanced(Instr::Copy {
                            len: st.rows as u32,
                            src: dy,
                            dst,
                        });
                        backward_instructions += 1;
                    } else {
                        let x = value_off[x_id.index()];
                        for cid in dist.grad_chunks_of(*w) {
                            let c = dist.chunk(*cid);
                            emitter.emit_pinned(
                                c.vpp,
                                Instr::OuterChunk {
                                    chunk: *cid,
                                    len: c.cols as u32,
                                    x,
                                    dy,
                                },
                            );
                            backward_instructions += 1;
                        }
                    }
                }
                Op::AddBias { b } => {
                    let dx = deriv_off[node.args[0].index()];
                    emitter.emit_balanced(Instr::AccAdd {
                        len: node.dim as u32,
                        x: dy,
                        y: dx,
                    });
                    backward_instructions += 1;
                    if fallback {
                        let (pidx, slot) = stage_slot[id.index()].expect("staged bias");
                        let st = stages[pidx].as_ref().expect("stage exists");
                        let dst = PoolOffset(st.dy_base.raw() + (slot * st.cols) as u32);
                        emitter.emit_balanced(Instr::Copy {
                            len: st.cols as u32,
                            src: dy,
                            dst,
                        });
                        backward_instructions += 1;
                    } else {
                        let cid = dist.grad_chunks_of(*b)[0];
                        emitter.emit_pinned(
                            dist.chunk(cid).vpp,
                            Instr::BiasGradChunk {
                                chunk: cid,
                                len: node.dim as u32,
                                dy,
                            },
                        );
                        backward_instructions += 1;
                    }
                }
                Op::Add => {
                    for arg in &node.args {
                        emit_seeded(
                            &mut emitter,
                            Instr::AccAdd {
                                len: node.dim as u32,
                                x: dy,
                                y: deriv_off[arg.index()],
                            },
                        );
                        backward_instructions += 1;
                    }
                }
                Op::Sub => {
                    emit_seeded(
                        &mut emitter,
                        Instr::AccAdd {
                            len: node.dim as u32,
                            x: dy,
                            y: deriv_off[node.args[0].index()],
                        },
                    );
                    emit_seeded(
                        &mut emitter,
                        Instr::AccSub {
                            len: node.dim as u32,
                            x: dy,
                            y: deriv_off[node.args[1].index()],
                        },
                    );
                    backward_instructions += 2;
                }
                Op::Sum => {
                    for arg in &node.args {
                        emit_seeded(
                            &mut emitter,
                            Instr::AccAdd {
                                len: node.dim as u32,
                                x: dy,
                                y: deriv_off[arg.index()],
                            },
                        );
                        backward_instructions += 1;
                    }
                }
                Op::CwiseMult => {
                    let (a, b) = (node.args[0], node.args[1]);
                    emitter.emit_balanced(Instr::MulAcc {
                        len: node.dim as u32,
                        a: dy,
                        b: value_off[b.index()],
                        y: deriv_off[a.index()],
                    });
                    emitter.emit_balanced(Instr::MulAcc {
                        len: node.dim as u32,
                        a: dy,
                        b: value_off[a.index()],
                        y: deriv_off[b.index()],
                    });
                    backward_instructions += 2;
                }
                Op::Tanh => {
                    emitter.emit_balanced(Instr::TanhBwd {
                        len: node.dim as u32,
                        y: value_off[id.index()],
                        dy,
                        dx: deriv_off[node.args[0].index()],
                    });
                    backward_instructions += 1;
                }
                Op::Sigmoid => {
                    emitter.emit_balanced(Instr::SigmoidBwd {
                        len: node.dim as u32,
                        y: value_off[id.index()],
                        dy,
                        dx: deriv_off[node.args[0].index()],
                    });
                    backward_instructions += 1;
                }
                Op::Relu => {
                    emitter.emit_balanced(Instr::ReluBwd {
                        len: node.dim as u32,
                        y: value_off[id.index()],
                        dy,
                        dx: deriv_off[node.args[0].index()],
                    });
                    backward_instructions += 1;
                }
                Op::Concat => {
                    let mut off = 0u32;
                    for arg in &node.args {
                        let alen = graph.node(*arg).dim as u32;
                        emit_seeded(
                            &mut emitter,
                            Instr::AccAdd {
                                len: alen,
                                x: PoolOffset(dy.raw() + off),
                                y: deriv_off[arg.index()],
                            },
                        );
                        off += alen;
                        backward_instructions += 1;
                    }
                }
                Op::PickNegLogSoftmax { label } => {
                    emit_seeded(
                        &mut emitter,
                        Instr::PickNlsBwd {
                            len: graph.node(node.args[0]).dim as u32,
                            x: value_off[node.args[0].index()],
                            dloss: dy,
                            dx: deriv_off[node.args[0].index()],
                            label: *label as u32,
                        },
                    );
                    backward_instructions += 1;
                }
            }
            if seed.is_some() && seeded_home.is_some() {
                backward_instructions += 1; // the seed copy itself
            }
        }
        last = emitter.flush_level(&mut scripts, &mut next_barrier, last);
    }

    let layout = BatchLayout {
        value_off,
        deriv_off,
        deriv_base,
        deriv_len,
        loss,
        stages,
    };
    if vpps_obs::enabled() {
        vpps_obs::counter("script.instructions")
            .add((forward_instructions + backward_instructions) as u64);
        vpps_obs::counter("script.barriers").add(next_barrier as u64);
        let (signals, waits) = scripts.sync_instructions();
        vpps_obs::counter("script.signal_instrs").add(signals);
        vpps_obs::counter("script.wait_instrs").add(waits);
    }
    Ok(GeneratedScript {
        scripts,
        layout,
        num_barriers: next_barrier,
        forward_instructions,
        backward_instructions,
        vpp_loads: emitter.loads,
        persistent_floor: tables.persistent_floor(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::validate_protocol;
    use dyn_graph::Model;
    use gpu_sim::DeviceConfig;
    use std::collections::HashMap;

    fn small_device() -> DeviceConfig {
        // A shrunken device so tests exercise multi-chunk distribution
        // without giant scripts.
        let mut d = DeviceConfig::titan_v();
        d.num_sms = 4;
        d
    }

    fn setup() -> (
        Model,
        dyn_graph::ParamId,
        dyn_graph::ParamId,
        KernelPlan,
        Pool,
        TableLayout,
    ) {
        let mut m = Model::new(5);
        let w = m.add_matrix("W", 32, 32);
        let b = m.add_bias("b", 32);
        let plan = KernelPlan::build(&m, &small_device(), 1).unwrap();
        let mut pool = Pool::with_capacity(1 << 16);
        let tables = TableLayout::install(&m, &mut pool).unwrap();
        (m, w, b, plan, pool, tables)
    }

    fn chain_graph(
        m: &Model,
        w: dyn_graph::ParamId,
        b: dyn_graph::ParamId,
        steps: usize,
    ) -> (Graph, NodeId) {
        let mut g = Graph::new();
        let mut h = g.input(vec![0.1; 32]);
        for _ in 0..steps {
            let z = g.affine(m, w, b, h);
            h = g.tanh(z);
        }
        let loss = g.pick_neg_log_softmax(h, 3);
        (g, loss)
    }

    #[test]
    fn generates_instructions_for_every_op() {
        let (m, w, b, plan, mut pool, tables) = setup();
        let (g, loss) = chain_graph(&m, w, b, 3);
        let gs = generate(&g, loss, &plan, &mut pool, &tables).unwrap();
        assert!(gs.forward_instructions > 0);
        assert!(gs.backward_instructions > 0);
        // 3 matvecs, each spread over the matrix's value chunks.
        let matvecs = (0..gs.scripts.num_vpps())
            .flat_map(|v| gs.scripts.script(v))
            .filter(|i| matches!(i, Instr::MatVecChunk { .. }))
            .count();
        assert_eq!(matvecs, 3 * plan.distribution().value_chunks_of(w).len());
    }

    #[test]
    fn barrier_protocol_is_consistent() {
        let (m, w, b, plan, mut pool, tables) = setup();
        let (g, loss) = chain_graph(&m, w, b, 5);
        let gs = generate(&g, loss, &plan, &mut pool, &tables).unwrap();
        assert!(gs.num_barriers > 0);
        assert_eq!(validate_protocol(&gs.scripts, plan.distribution()), Ok(()));
    }

    #[test]
    fn waits_always_precede_level_bodies() {
        let (m, w, b, plan, mut pool, tables) = setup();
        // Levels of different widths, so successive levels touch different
        // VPP subsets: 24 independent tanh nodes, one sum, then the chain.
        let mut g = Graph::new();
        let wide: Vec<NodeId> = (0..24)
            .map(|i| {
                let x = g.input(vec![0.01 * i as f32; 32]);
                g.tanh(x)
            })
            .collect();
        let mut h = g.sum(&wide);
        for _ in 0..4 {
            let z = g.affine(&m, w, b, h);
            h = g.tanh(z);
        }
        let loss = g.pick_neg_log_softmax(h, 3);
        let gs = generate(&g, loss, &plan, &mut pool, &tables).unwrap();

        assert_eq!(validate_protocol(&gs.scripts, plan.distribution()), Ok(()));
        // Every instruction lands in exactly one level's body: a buffer that
        // survived its flush would replay in the VPP's next level.
        assert_eq!(
            gs.scripts.compute_instructions(),
            gs.forward_instructions + gs.backward_instructions
        );
        let mut signallers: HashMap<u32, usize> = HashMap::new();
        for instr in (0..gs.scripts.num_vpps()).flat_map(|v| gs.scripts.script(v)) {
            if let Instr::Signal { barrier } = instr {
                *signallers.entry(*barrier).or_default() += 1;
            }
        }
        let widths: std::collections::BTreeSet<usize> = signallers.into_values().collect();
        assert!(
            widths.len() > 1,
            "every level touched the same number of VPPs: {widths:?}"
        );
    }

    #[test]
    fn in_register_plan_emits_outer_chunks() {
        let (m, w, b, plan, mut pool, tables) = setup();
        assert_eq!(plan.grad_strategy(), GradStrategy::InRegister);
        let (g, loss) = chain_graph(&m, w, b, 2);
        let gs = generate(&g, loss, &plan, &mut pool, &tables).unwrap();
        let outers = (0..gs.scripts.num_vpps())
            .flat_map(|v| gs.scripts.script(v))
            .filter(|i| matches!(i, Instr::OuterChunk { .. }))
            .count();
        assert!(outers > 0);
        assert!(gs.layout.stages.iter().all(Option::is_none));
        let _ = w;
    }

    #[test]
    fn fallback_plan_stages_pairs_instead() {
        // Force the fallback with a model too big for gradient caching on a
        // tiny device.
        let mut d = small_device();
        d.num_sms = 2;
        let mut m = Model::new(1);
        let mut ws = Vec::new();
        for i in 0..6 {
            ws.push(m.add_matrix(&format!("W{i}"), 128, 128));
        }
        let plan = KernelPlan::build(&m, &d, 1).unwrap();
        assert_eq!(plan.grad_strategy(), GradStrategy::GemmFallback);
        let mut pool = Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&m, &mut pool).unwrap();
        let mut g = Graph::new();
        let mut h = g.input(vec![0.1; 128]);
        for &w in &ws {
            let z = g.matvec(&m, w, h);
            h = g.tanh(z);
        }
        let loss = g.pick_neg_log_softmax(h, 0);
        let gs = generate(&g, loss, &plan, &mut pool, &tables).unwrap();
        let outers = (0..gs.scripts.num_vpps())
            .flat_map(|v| gs.scripts.script(v))
            .filter(|i| matches!(i, Instr::OuterChunk { .. }))
            .count();
        assert_eq!(outers, 0);
        let staged: usize = gs.layout.stages.iter().flatten().map(|s| s.uses).sum();
        assert_eq!(staged, 6);
    }

    #[test]
    fn load_balancing_spreads_unpinned_work() {
        let (m, _, _, plan, mut pool, tables) = setup();
        // A wide graph of independent tanh nodes at one level.
        let mut g = Graph::new();
        let mut outs = Vec::new();
        for i in 0..64 {
            let x = g.input(vec![0.01 * i as f32; 16]);
            outs.push(g.tanh(x));
        }
        let cat = g.concat(&outs);
        let loss = g.pick_neg_log_softmax(cat, 0);
        let gs = generate(&g, loss, &plan, &mut pool, &tables).unwrap();
        let busy = gs.vpp_loads.iter().filter(|&&l| l > 0.0).count();
        assert!(
            busy >= 4,
            "independent work should use all {} VPPs, used {busy}",
            gs.vpp_loads.len()
        );
        let _ = m;
    }

    /// Every op that can be a 1-dim loss, as `(op, graph, loss)`, over a
    /// model whose first parameters are a 1 × 8 matrix and a 1-dim bias and
    /// whose first lookup table has 1-dim rows.
    fn one_dim_losses(m: &Model) -> Vec<(&'static str, Graph, NodeId)> {
        let w = m.params().next().unwrap().0;
        let b = m.params().nth(1).unwrap().0;
        let table = m.lookups().next().unwrap().0;
        let ops = [
            "input",
            "lookup",
            "matvec",
            "add_bias",
            "add",
            "sub",
            "sum",
            "cwise_mult",
            "tanh",
            "sigmoid",
            "relu",
            "concat",
            "pick",
        ];
        ops.into_iter()
            .map(|op| {
                let mut g = Graph::new();
                let x = g.input((0..8).map(|i| 0.1 * i as f32 - 0.3).collect());
                let s = g.matvec(m, w, x);
                let t = g.tanh(s);
                let loss = match op {
                    "input" => g.input(vec![0.5]),
                    "lookup" => g.lookup(m, table, 2),
                    "matvec" => g.matvec(m, w, x),
                    "add_bias" => g.add_bias(m, b, s),
                    "add" => g.add(s, t),
                    "sub" => g.sub(s, t),
                    "sum" => g.sum(&[s, t]),
                    "cwise_mult" => g.cwise_mult(s, t),
                    "tanh" => g.tanh(s),
                    "sigmoid" => g.sigmoid(s),
                    "relu" => g.relu(s),
                    "concat" => g.concat(&[s]),
                    _ => g.pick_neg_log_softmax(x, 3),
                };
                (op, g, loss)
            })
            .collect()
    }

    #[test]
    fn loss_derivative_is_seeded_exactly_once() {
        let mut m = Model::new(5);
        m.add_matrix("W", 1, 8);
        m.add_bias("b", 1);
        m.add_lookup("E", 4, 1);
        let plan = KernelPlan::build(&m, &small_device(), 1).unwrap();
        let mut pool = Pool::with_capacity(1 << 16);
        let tables = TableLayout::install(&m, &mut pool).unwrap();
        for (name, g, loss) in one_dim_losses(&m) {
            assert_eq!(g.node(loss).dim, 1, "{name}");
            pool.reset();
            let gs = generate(&g, loss, &plan, &mut pool, &tables).unwrap();
            let dloss = gs.layout.deriv_off[loss.index()];
            let seeds = (0..gs.scripts.num_vpps())
                .flat_map(|v| gs.scripts.script(v))
                .filter(|i| {
                    matches!(i, Instr::Copy { src, dst, .. }
                    if *src == tables.const_one() && *dst == dloss)
                })
                .count();
            assert_eq!(seeds, 1, "{name}");
            assert_eq!(
                validate_protocol(&gs.scripts, plan.distribution()),
                Ok(()),
                "{name}"
            );
        }
    }

    #[test]
    fn pool_exhaustion_is_reported() {
        let (m, w, b, plan, _, _) = setup();
        let mut tiny = Pool::with_capacity(64);
        let tables = TableLayout::install(&m, &mut tiny).unwrap();
        let (g, loss) = chain_graph(&m, w, b, 4);
        let err = generate(&g, loss, &plan, &mut tiny, &tables).unwrap_err();
        assert!(matches!(err, VppsError::PoolExhausted { .. }));
    }

    #[test]
    fn super_graph_of_two_inputs_generates_more_work() {
        let (m, w, b, plan, mut pool, tables) = setup();
        let (g1, l1) = chain_graph(&m, w, b, 2);
        let gs1 = generate(&g1, l1, &plan, &mut pool, &tables).unwrap();
        pool.reset();

        // Batch the same graph twice into a super-graph with summed loss.
        let mut sg = Graph::new();
        let (ga, la) = chain_graph(&m, w, b, 2);
        let (gb, lb) = chain_graph(&m, w, b, 2);
        let ra = sg.absorb(&ga, la);
        let rb = sg.absorb(&gb, lb);
        let total = sg.sum(&[ra, rb]);
        let gs2 = generate(&sg, total, &plan, &mut pool, &tables).unwrap();
        assert!(gs2.forward_instructions > gs1.forward_instructions);
        assert_eq!(validate_protocol(&gs2.scripts, plan.distribution()), Ok(()));
    }
}
