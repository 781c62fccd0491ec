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
use std::sync::Arc;

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
    /// freezes the floor).
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
    /// Length of the derivative region in elements.
    pub deriv_len: usize,
    /// The loss node this batch backpropagates from.
    pub loss: NodeId,
    /// GEMM-fallback staging regions, indexed by parameter index.
    pub stages: Vec<Option<ParamStage>>,
}

/// Where one per-request literal of the scripts comes from: the graph node
/// that supplies it, or a batch-invariant resident offset. The generator
/// records one for every literal it emits ([`GeneratedScript::literals`]),
/// and lowering makes exactly those instructions patch points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Literal {
    /// A `Copy` source: the pool offset of the table row this `Lookup` node
    /// reads.
    Row(NodeId),
    /// The gold label of this `PickNegLogSoftmax` node, in its `PickNls` or
    /// `PickNlsBwd`.
    Label(NodeId),
    /// A `Copy` source at a batch-invariant resident offset (the loss-seed
    /// constant).
    Resident(u32),
}

/// The generated per-batch artifact: scripts plus layout plus scheduling
/// statistics.
#[derive(Debug, Clone)]
pub struct GeneratedScript {
    /// Per-VPP instruction streams, shared with the interpreter's sweep.
    pub scripts: Arc<ScriptSet>,
    /// Pool layout for this batch, shared with its sweep and lowered
    /// artifact.
    pub layout: Arc<BatchLayout>,
    /// Barriers allocated.
    pub num_barriers: u32,
    /// Compute instructions emitted during forward traversal.
    pub forward_instructions: usize,
    /// Compute instructions emitted during backward traversal.
    pub backward_instructions: usize,
    /// Every per-request literal the scripts carry, as `(vpp, ip, source)`
    /// sorted by `(vpp, ip)`: a lookup's `Copy`, a `PickNls` / `PickNlsBwd`
    /// and the loss-seed `Copy`.
    pub literals: Vec<(u32, u32, Literal)>,
    /// Pool elements the batch lays out above the pool base: one `alloc`
    /// of this length there reserves (and zeroes) its region.
    pub pool_len: usize,
    /// The table layout's [`TableLayout::persistent_floor`] at generation
    /// time: offsets below it are batch-invariant residents. Carried here so
    /// lowering's bounds don't need the layout itself.
    pub persistent_floor: u32,
    /// The words these scripts are a pure function of: plan id, pool base,
    /// schedule policy, train|infer, root and the graph's
    /// `Graph::encode_structure`, which leaves out the per-request literals
    /// (input values, lookup rows, gold labels). Two batches with equal keys
    /// get scripts that differ only in those literals. The one other input
    /// of generation, the [`TableLayout`], is not in the key: it is fixed
    /// for the lowered cache that compares keys (one per `Handle`).
    pub key: Box<[u32]>,
}

impl GeneratedScript {
    /// Adds these scripts to the `script.*` obs counters: where a batch
    /// uses them, once per attempt that does, however they were made.
    pub fn record_obs(&self) {
        if vpps_obs::enabled() {
            let instructions = self.forward_instructions + self.backward_instructions;
            let sync = self.scripts.sync_instructions();
            count_scripts(instructions as u64, self.num_barriers, sync);
        }
    }
}

/// Adds one batch's scripts to the `script.*` obs counters: `instructions`
/// compute instructions, `barriers` barriers and `(signals, waits)` sync
/// instructions.
pub(crate) fn count_scripts(instructions: u64, barriers: u32, (signals, waits): (u64, u64)) {
    vpps_obs::counter("script.instructions").add(instructions);
    vpps_obs::counter("script.barriers").add(u64::from(barriers));
    vpps_obs::counter("script.signal_instrs").add(signals);
    vpps_obs::counter("script.wait_instrs").add(waits);
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
    /// The first VPP of least load, while known. Loads only rise (every
    /// cost is ≥ 0), so another VPP's rise leaves it where it is.
    least: Option<usize>,
    /// The scripts so far: a level's body lands in each VPP's script as it
    /// is emitted, after the VPP's `Wait` for the level before.
    scripts: ScriptSet,
    /// The `Wait` that opens a VPP's body in the open level (`None` in the
    /// first level).
    wait: Option<Instr>,
    /// The barrier the open level signals.
    barrier: u32,
    /// Per VPP, `true` once it has a body in the open level.
    open: Vec<bool>,
    /// VPPs with a body in the open level, in first-emit order.
    touched: Vec<usize>,
    policy: SchedulePolicy,
    rr_next: usize,
    /// [`GeneratedScript::literals`] so far.
    literals: Vec<(u32, u32, Literal)>,
}

impl<'a> Emitter<'a> {
    fn new(dist: &'a Distribution, policy: SchedulePolicy, literals: usize) -> Self {
        let vpps = dist.geometry().total_vpps();
        Self {
            dist,
            loads: vec![0.0; vpps],
            least: None,
            scripts: ScriptSet::new(vpps),
            wait: None,
            barrier: 0,
            open: vec![false; vpps],
            touched: Vec::new(),
            policy,
            rr_next: 0,
            literals: Vec::with_capacity(literals),
        }
    }

    #[inline(always)]
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

    /// Emits to a pinned VPP: the VPP's first instruction of the level
    /// lands after its `Wait`. Inlined into every emitting arm, where the
    /// instruction's variant is known, so `instr_load`'s and
    /// [`ScriptSet::push`]'s matches on it fold away.
    #[inline(always)]
    fn emit_pinned(&mut self, vpp: usize, instr: Instr) {
        let add = self.instr_load(&instr);
        let load = &mut self.loads[vpp];
        let was = load.to_bits();
        *load += add;
        if self.least == Some(vpp) && load.to_bits() != was {
            // The least load rose: the next VPP to carry the same load, if
            // any, is the first of least load now; else look again.
            let ties = self.loads[vpp + 1..]
                .iter()
                .position(|l| l.to_bits() == was);
            self.least = ties.map(|k| vpp + 1 + k);
        }
        if !self.open[vpp] {
            self.open[vpp] = true;
            self.touched.push(vpp);
            if let Some(wait) = self.wait {
                self.scripts.push(vpp, wait);
            }
        }
        self.scripts.push(vpp, instr);
    }

    /// Emits to the VPP chosen by the scheduling policy, returning the
    /// choice.
    #[inline(always)]
    fn emit_balanced(&mut self, instr: Instr) -> usize {
        let vpp = match self.policy {
            SchedulePolicy::MinLoad => *self.least.get_or_insert_with(|| {
                let loads = self.loads.iter().enumerate();
                let least = loads.min_by(|a, b| a.1.total_cmp(b.1));
                least.map(|(i, _)| i).expect("at least one VPP")
            }),
            SchedulePolicy::RoundRobin => {
                let v = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.loads.len();
                v
            }
        };
        self.emit_pinned(vpp, instr);
        vpp
    }

    /// Records `source` for the literal of the instruction just emitted to
    /// `vpp`.
    fn literal(&mut self, vpp: usize, source: Literal) {
        let at = self.scripts.script(vpp).len() - 1;
        self.literals.push((vpp as u32, at as u32, source));
    }

    /// Emits the loss-derivative seed, a copy of the resident constant `one`
    /// to `dloss`, to the VPP the scheduling policy picks, returning it.
    fn emit_seed(&mut self, one: PoolOffset, dloss: PoolOffset) -> usize {
        let seed = Instr::Copy {
            len: 1,
            src: one,
            dst: dloss,
        };
        let vpp = self.emit_balanced(seed);
        self.literal(vpp, Literal::Resident(one.raw()));
        vpp
    }

    /// Closes the current level with the barrier protocol: every VPP with a
    /// body in it signals the level's barrier, which every VPP with a body
    /// in the next non-empty level waits on. A level with no body takes no
    /// barrier.
    fn flush_level(&mut self) {
        if self.touched.is_empty() {
            return;
        }
        let barrier = self.barrier;
        self.wait = Some(Instr::Wait {
            barrier,
            needed: self.touched.len() as u32,
        });
        self.barrier += 1;
        for vpp in self.touched.drain(..) {
            self.scripts.push(vpp, Instr::Signal { barrier });
            self.open[vpp] = false;
        }
    }
}

/// Generation's view of the pool: a bump cursor over the batch region from
/// the pool base up to the capacity, which lays the batch out without
/// touching the pool, with the errors [`Pool::alloc`] would give.
struct Cursor {
    used: usize,
    capacity: usize,
}

impl Cursor {
    fn alloc(&mut self, len: usize) -> Result<PoolOffset, VppsError> {
        let end = self.used + len;
        if end > self.capacity {
            return Err(VppsError::PoolExhausted {
                requested: len,
                capacity: self.capacity,
            });
        }
        let off = PoolOffset(self.used as u32);
        self.used = end;
        Ok(off)
    }
}

/// Appends [`GeneratedScript::key`] for generating `graph` from `root` on
/// `plan`, into a pool whose batch region starts at `pool_base`. The
/// generator stamps its scripts with it, and the lowered cache builds the
/// same words from a graph before generating, so the key it compares is the
/// key the scripts were made from.
pub(crate) fn dispatch_key(
    graph: &Graph,
    root: NodeId,
    plan: &KernelPlan,
    pool_base: usize,
    policy: SchedulePolicy,
    train: bool,
    out: &mut Vec<u32>,
) {
    // Four words here, train|infer and root, then the encoding: counted
    // first, so a fresh key is one allocation of the exact length.
    let mut words = 6;
    graph.encode_structure(|_| words += 1);
    out.reserve(words);
    let plan_id = plan.signature().plan_id();
    out.extend([
        plan_id as u32,
        (plan_id >> 32) as u32,
        u32::try_from(pool_base).expect("pool offsets are 4-byte"),
        policy as u32,
    ]);
    graph.dispatch_key(root, train, out);
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

/// Generates the scripts of one batch without a pool: the training
/// scripts of [`generate`] (`train`, `root` the loss) or the forward-only
/// ones of [`generate_forward_only`], laid out from `pool_base` within a
/// pool of `capacity` elements, for a caller that reserves
/// [`GeneratedScript::pool_len`] elements there with one `alloc`. A pure
/// function of its arguments, so it runs on any thread: it writes no pool
/// and counts no `script.*` obs counter ([`GeneratedScript::record_obs`]
/// does, where the scripts are used).
///
/// # Errors
///
/// Returns [`VppsError::PoolExhausted`] if the batch does not fit the pool,
/// with the values [`generate`] would give.
pub(crate) fn generate_detached(
    graph: &Graph,
    root: NodeId,
    plan: &KernelPlan,
    train: bool,
    (pool_base, capacity): (usize, usize),
    tables: &TableLayout,
) -> Result<GeneratedScript, VppsError> {
    let mut cursor = Cursor {
        used: pool_base,
        capacity,
    };
    let policy = SchedulePolicy::MinLoad;
    generate_inner(graph, root, plan, &mut cursor, tables, policy, train)
}

/// [`generate_detached`] into `pool`: reserves the batch region there and
/// counts the scripts.
fn generate_in(
    graph: &Graph,
    root: NodeId,
    plan: &KernelPlan,
    pool: &mut Pool,
    tables: &TableLayout,
    policy: SchedulePolicy,
    backward: bool,
) -> Result<GeneratedScript, VppsError> {
    let mut cursor = Cursor {
        used: pool.used(),
        capacity: pool.capacity(),
    };
    let gs = generate_inner(graph, root, plan, &mut cursor, tables, policy, backward)?;
    pool.alloc(gs.pool_len)
        .map_err(|_| VppsError::PoolExhausted {
            requested: gs.pool_len,
            capacity: pool.capacity(),
        })?;
    gs.record_obs();
    Ok(gs)
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
    generate_in(graph, loss, plan, pool, tables, policy, true)
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
    generate_in(
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
    pool: &mut Cursor,
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
    let pool_base = pool.used;
    let mut key = Vec::new();
    dispatch_key(graph, loss, plan, pool_base, policy, backward, &mut key);

    // ---- pool layout: values, then a contiguous derivative region. The
    // literals are counted on the way: a lookup's row, a pick's label
    // (twice, training) and, training, the loss seed.
    let mut literals = usize::from(backward);
    let mut value_off = Vec::with_capacity(graph.len());
    for (_, node) in graph.iter() {
        literals += match node.op {
            Op::Lookup { .. } => 1,
            Op::PickNegLogSoftmax { .. } => 1 + usize::from(backward),
            _ => 0,
        };
        value_off.push(pool.alloc(node.dim)?);
    }
    let deriv_start = pool.used;
    let mut deriv_off = Vec::with_capacity(graph.len());
    if backward {
        for (_, node) in graph.iter() {
            deriv_off.push(pool.alloc(node.dim)?);
        }
    } else {
        deriv_off = vec![PoolOffset(deriv_start as u32); graph.len()];
    }
    let deriv_len = pool.used - deriv_start;

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
                Some(pool.alloc(cols * count)?)
            };
            let dy_len = if is_bias { cols * count } else { rows * count };
            let dy_base = pool.alloc(dy_len)?;
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
    let mut emitter = Emitter::new(dist, policy, literals);
    let one = tables.const_one();
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
            let args = graph.args(id);
            let y = value_off[id.index()];
            match &node.op {
                Op::Input { .. } => {} // pre-copied host-to-device
                Op::Lookup { table, index } => {
                    let vpp = emitter.emit_balanced(Instr::Copy {
                        len: node.dim as u32,
                        src: tables.row_offset(*table, *index),
                        dst: y,
                    });
                    emitter.literal(vpp, Literal::Row(id));
                    forward_instructions += 1;
                }
                Op::MatVec { w } => {
                    let x = value_off[args[0].index()];
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
                    let x = value_off[args[0].index()];
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
                        a: value_off[args[0].index()],
                        b: value_off[args[1].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Sub => {
                    emitter.emit_balanced(Instr::Sub {
                        len: node.dim as u32,
                        a: value_off[args[0].index()],
                        b: value_off[args[1].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Sum => {
                    // Sequential accumulation on one VPP (destination starts
                    // zeroed by the pool).
                    let first = emitter.emit_balanced(Instr::AccAdd {
                        len: node.dim as u32,
                        x: value_off[args[0].index()],
                        y,
                    });
                    for arg in &args[1..] {
                        emitter.emit_pinned(
                            first,
                            Instr::AccAdd {
                                len: node.dim as u32,
                                x: value_off[arg.index()],
                                y,
                            },
                        );
                    }
                    forward_instructions += args.len();
                }
                Op::CwiseMult => {
                    emitter.emit_balanced(Instr::CwiseMult {
                        len: node.dim as u32,
                        a: value_off[args[0].index()],
                        b: value_off[args[1].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Tanh => {
                    emitter.emit_balanced(Instr::Tanh {
                        len: node.dim as u32,
                        x: value_off[args[0].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Sigmoid => {
                    emitter.emit_balanced(Instr::Sigmoid {
                        len: node.dim as u32,
                        x: value_off[args[0].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Relu => {
                    emitter.emit_balanced(Instr::Relu {
                        len: node.dim as u32,
                        x: value_off[args[0].index()],
                        y,
                    });
                    forward_instructions += 1;
                }
                Op::Concat => {
                    // Pieces write disjoint destinations; keep them on one VPP
                    // so a single barrier covers them.
                    let mut off = 0u32;
                    let mut home = None;
                    for arg in args {
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
                    forward_instructions += args.len();
                }
                Op::PickNegLogSoftmax { label } => {
                    let vpp = emitter.emit_balanced(Instr::PickNls {
                        len: graph.node(args[0]).dim as u32,
                        x: value_off[args[0].index()],
                        out: y,
                        label: *label as u32,
                    });
                    emitter.literal(vpp, Literal::Label(id));
                    forward_instructions += 1;
                }
            }
            if seed_in_forward && id == loss {
                emitter.emit_seed(one, deriv_off[id.index()]);
                backward_instructions += 1;
            }
        }
        emitter.flush_level();
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
            let args = graph.args(id);
            let dy = deriv_off[id.index()];
            // Seed the loss derivative on whichever VPP handles the loss
            // node's backward instructions; emit it first for that node.
            let seed = id == loss;
            let mut seeded_home: Option<usize> = None;
            let mut emit_seeded = |em: &mut Emitter, instr: Instr| {
                if seed && seeded_home.is_none() {
                    seeded_home = Some(em.emit_seed(one, dy));
                }
                let v = match seeded_home {
                    Some(v) => {
                        em.emit_pinned(v, instr);
                        v
                    }
                    None => em.emit_balanced(instr),
                };
                seeded_home = Some(v);
                v
            };

            match &node.op {
                Op::Input { .. } | Op::Lookup { .. } => {
                    // Inputs need no derivative; lookup-table gradients are
                    // applied host-side from the deriv region after the
                    // kernel (sparse update outside the cached set).
                    if seed {
                        emitter.emit_seed(one, dy);
                        backward_instructions += 1;
                    }
                }
                Op::MatVec { w } => {
                    let x_id = args[0];
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
                    let dx = deriv_off[args[0].index()];
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
                    for arg in args {
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
                            y: deriv_off[args[0].index()],
                        },
                    );
                    emit_seeded(
                        &mut emitter,
                        Instr::AccSub {
                            len: node.dim as u32,
                            x: dy,
                            y: deriv_off[args[1].index()],
                        },
                    );
                    backward_instructions += 2;
                }
                Op::Sum => {
                    for arg in args {
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
                    let (a, b) = (args[0], args[1]);
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
                        dx: deriv_off[args[0].index()],
                    });
                    backward_instructions += 1;
                }
                Op::Sigmoid => {
                    emitter.emit_balanced(Instr::SigmoidBwd {
                        len: node.dim as u32,
                        y: value_off[id.index()],
                        dy,
                        dx: deriv_off[args[0].index()],
                    });
                    backward_instructions += 1;
                }
                Op::Relu => {
                    emitter.emit_balanced(Instr::ReluBwd {
                        len: node.dim as u32,
                        y: value_off[id.index()],
                        dy,
                        dx: deriv_off[args[0].index()],
                    });
                    backward_instructions += 1;
                }
                Op::Concat => {
                    let mut off = 0u32;
                    for arg in args {
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
                    let vpp = emit_seeded(
                        &mut emitter,
                        Instr::PickNlsBwd {
                            len: graph.node(args[0]).dim as u32,
                            x: value_off[args[0].index()],
                            dloss: dy,
                            dx: deriv_off[args[0].index()],
                            label: *label as u32,
                        },
                    );
                    emitter.literal(vpp, Literal::Label(id));
                    backward_instructions += 1;
                }
            }
            if seed && seeded_home.is_some() {
                backward_instructions += 1; // the seed copy itself
            }
        }
        emitter.flush_level();
    }

    let layout = BatchLayout {
        value_off,
        deriv_off,
        deriv_len,
        loss,
        stages,
    };
    let mut literals = emitter.literals;
    literals.sort_unstable_by_key(|&(vpp, ip, _)| (vpp, ip));
    Ok(GeneratedScript {
        scripts: Arc::new(emitter.scripts),
        layout: Arc::new(layout),
        num_barriers: emitter.barrier,
        forward_instructions,
        backward_instructions,
        literals,
        pool_len: pool.used - pool_base,
        persistent_floor: tables.persistent_floor(),
        key: key.into_boxed_slice(),
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
        let busy = (0..gs.scripts.num_vpps())
            .filter(|&v| {
                let script = gs.scripts.script(v);
                script.iter().any(|i| matches!(i, Instr::Tanh { .. }))
            })
            .count();
        assert!(
            busy >= 4,
            "independent work should use all {} VPPs, used {busy}",
            gs.scripts.num_vpps()
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
