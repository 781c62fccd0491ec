//! Lowered-script execution: the host-side analogue of the paper's
//! specialization.
//!
//! The NVRTC-specialized persistent kernel bakes *literal register indices*
//! into its instruction stream so VPPs never chase pointers at run time.
//! The interpreted backends still pay that indirection on the host: every
//! executed [`Instr`] goes through a 20-arm `match`, a
//! [`Distribution::chunk`] lookup, a `row_start` offset computation and one
//! to three heap allocations. This module performs the same specialization
//! once, ahead of time:
//!
//! ```text
//!  GeneratedScript ─┐
//!  Distribution  ───┼─ lower() ──► LoweredScript
//!  KernelPlan  ─────┘                ├─ ops:      flat [MicroOp], sync
//!  (CostModel for the timeline)      │            compiled away: the reference
//!                                    │            serial order, same-chunk ops
//!                                    │            regrouped inside segments
//!                                    ├─ blocks:   the ops each kernel call runs
//!                                    ├─ waves:    each wide level cut into
//!                                    │            pieces two threads claim
//!                                    └─ timeline: the cached TimelineReport
//! ```
//!
//! * **Literal resolution** — every pool offset (including the chunk's
//!   `row_start` bias), operand length and chunk *register-arena offset*
//!   ([`Chunk::offset`] — the host analogue of the literal register index)
//!   is folded into the [`MicroOp`] as a plain integer at lower time; the hot
//!   loop does no [`Distribution`] lookups and allocates nothing.
//! * **Sync compiled away** — the event-driven schedule (which *is* the
//!   barrier/wave structure) is resolved at lower time into the serial op
//!   order of [`TimelineReport::order`]; the executor is a branch-light
//!   sweep over contiguous `MicroOp` structs with no `Signal`/`Wait` arms at
//!   all. Note the serial order is not wave-contiguous: a VPP whose wait is
//!   satisfied mid-sweep runs ahead into the next wave, and the lowered
//!   stream follows that reference order, which is what keeps the backend
//!   bit-identical to [`super::EventInterp`].
//! * **Weight-stationary order** — the paper loads a weight once and reuses
//!   it from registers for every node of a level; the reference order does
//!   the opposite on the host (node-major: each op streams a different
//!   chunk). Inside each *segment* — one VPP's consecutive compute
//!   instructions with no `Signal`/`Wait` between them — lowering regroups
//!   the ops so that mat-vecs, transposed mat-vecs and outer products of one
//!   chunk sit next to each other, never swapping two ops that conflict (one
//!   writes what the other reads or writes, in the pool or the arena). `ops`
//!   is therefore a conflict-preserving permutation of the reference order:
//!   every memory location sees the same operations in the same order, so
//!   the result is the same to the bit, while the sweep walks each chunk once
//!   per segment and hands adjacent same-chunk ops to the register-blocked
//!   kernels. This happens in the same single pass over the order that
//!   resolves the literals, one segment at a time; a segment in which no
//!   chunk key repeats is appended as it is. A last pass over the final
//!   stream records which adjacent ops share one kernel call
//!   ([`LoweredScript::blocks`]), so the sweep forms no block.
//! * **Schedule resolved once** — lowering runs the one timeline sweep
//!   ([`timeline::analyze`], which prices each instruction shape once) and
//!   the artifact caches the resulting [`TimelineReport`], so re-running an
//!   identical script never recomputes a cost or the schedule. The timeline
//!   and the cost model see the original scripts — regrouping changes no
//!   simulated number.
//! * **Wave-parallel** — the stream is the barrier levels laid out one after
//!   another; on a host of two cores lowering cuts each level wide enough
//!   to pay for a handoff into pieces (`WavePlan`), which the sweeping
//!   thread and a helper thread claim one at a time: ops that touch a
//!   location one of them writes stay in one piece, so every location sees
//!   the serial order and the bits do not change ([`Helpers`]).
//! * **Shared inner kernels** — the arithmetic routes through
//!   [`crate::exec::kernels`]: the chunked dot/axpy loops the interpreted
//!   semantics use, in register-blocked forms that give every output element
//!   the same operations in the same order, so results match bit for bit.
//!
//! Everything lowering needs to know about the *plan* — chunk geometry and
//! arena offsets — it reads from [`KernelPlan::distribution`], built once per
//! plan. What [`LoweredCache`] caches is per *dispatch*: one bounded FIFO map
//! from the key the generator stamps on its scripts ([`GeneratedScript::key`]
//! — plan id, pool base, schedule policy, train|infer, root and the graph's
//! structural encoding) to the full [`LoweredScript`] (micro-ops + timeline —
//! the full skip-analysis win for re-run scripts). The key leaves out the
//! per-request literals (embedding rows, gold labels, input values); the
//! script instructions carrying them become patch points, which the executor
//! patches back in per run, so batches that differ *only* in which rows they
//! look up and which labels they pick — a serving bucket's canonical
//! super-graphs — share one cached artifact. A hit needs equal key words,
//! never just an equal hash.
//!
//! The cache builds the same key from the batch *graph*
//! ([`LoweredCache::lookup_graph`]), so a batch seen before finds its
//! artifact without generating its scripts at all. The artifact is its own
//! warm summary: it also holds the few things a batch otherwise reads from
//! its [`GeneratedScript`] — the pool layout, the counts the simulated
//! host/copy charges come from, and the graph node behind every patch point,
//! which the generator recorded as it emitted the literal
//! ([`GeneratedScript::literals`]). Nothing is inferred after lowering.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::mem;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use dyn_graph::{Graph, NodeId, Op};
use gpu_sim::CostModel;
use vpps_obs::Counter;
use vpps_tensor::Pool;

use crate::distribute::{Chunk, ChunkId, Distribution};
use crate::exec::kernels::{self, MAX_BLOCK};
use crate::exec::regcache::RegCache;
use crate::script::generate::{count_scripts, dispatch_key};
use crate::script::isa::OPCODES;
use crate::script::{BatchLayout, GeneratedScript, Instr, Literal, SchedulePolicy, TableLayout};
use crate::specialize::KernelPlan;
#[allow(unused_imports)] // doc links
use crate::{script::ScriptSet, specialize::PlanSignature};

use super::timeline::{self, TimelineReport};

/// One fully resolved instruction of the lowered stream.
///
/// All fields are literal `u32`s: raw pool indices (with any chunk
/// `row_start` bias already folded in), element counts and register-arena
/// offsets (`reg`, the chunk's [`Chunk::offset`]). Executing one op touches
/// no plan metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// `y[r] = dot(chunk_row_r, x[..len])`; `y` is pre-offset by the
    /// chunk's `row_start`.
    MatVec {
        /// Arena offset of the chunk.
        reg: u32,
        /// Input vector pool index.
        x: u32,
        /// Output pool index (row_start already applied).
        y: u32,
        /// Input vector length.
        len: u32,
        /// Rows in the chunk.
        rows: u32,
        /// Chunk row stride (matrix columns).
        cols: u32,
    },
    /// `dx[..len] += Σ_r dy[r] * chunk_row_r`; `dy` pre-offset by
    /// `row_start`.
    TMatVec {
        /// Arena offset of the chunk.
        reg: u32,
        /// Upstream gradient pool index (row_start already applied).
        dy: u32,
        /// Accumulated gradient pool index.
        dx: u32,
        /// Output gradient length.
        len: u32,
        /// Rows in the chunk.
        rows: u32,
        /// Chunk row stride (matrix columns).
        cols: u32,
    },
    /// `grad_chunk_row_r += dy[r] * x[..len]`; `dy` pre-offset by
    /// `row_start`.
    Outer {
        /// Arena offset of the gradient chunk.
        reg: u32,
        /// Input vector pool index.
        x: u32,
        /// Upstream gradient pool index (row_start already applied).
        dy: u32,
        /// Input vector length.
        len: u32,
        /// Rows in the chunk.
        rows: u32,
        /// Chunk row stride (matrix columns).
        cols: u32,
    },
    /// `y[i] = x[i] + bias[i]` over a single-row bias chunk.
    AddBias {
        /// Arena offset of the bias chunk.
        reg: u32,
        /// Input pool index.
        x: u32,
        /// Output pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `bias_grad[i] += dy[i]`.
    BiasGrad {
        /// Arena offset of the bias-gradient chunk.
        reg: u32,
        /// Upstream gradient pool index.
        dy: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] = tanh(x[i])`.
    Tanh {
        /// Input pool index.
        x: u32,
        /// Output pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] = sigmoid(x[i])`.
    Sigmoid {
        /// Input pool index.
        x: u32,
        /// Output pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] = max(x[i], 0)`.
    Relu {
        /// Input pool index.
        x: u32,
        /// Output pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `dx[i] += dy[i] * (1 - y[i]^2)`.
    TanhBwd {
        /// Forward output pool index.
        y: u32,
        /// Upstream gradient pool index.
        dy: u32,
        /// Accumulated gradient pool index.
        dx: u32,
        /// Element count.
        len: u32,
    },
    /// `dx[i] += dy[i] * y[i] * (1 - y[i])`.
    SigmoidBwd {
        /// Forward output pool index.
        y: u32,
        /// Upstream gradient pool index.
        dy: u32,
        /// Accumulated gradient pool index.
        dx: u32,
        /// Element count.
        len: u32,
    },
    /// `dx[i] += if y[i] > 0 { dy[i] } else { 0 }`.
    ReluBwd {
        /// Forward output pool index.
        y: u32,
        /// Upstream gradient pool index.
        dy: u32,
        /// Accumulated gradient pool index.
        dx: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] = a[i] - b[i]`.
    Sub {
        /// Left operand pool index.
        a: u32,
        /// Right operand pool index.
        b: u32,
        /// Output pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] += -x[i]`.
    AccSub {
        /// Input pool index.
        x: u32,
        /// Accumulator pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] = a[i] + b[i]`.
    Add {
        /// Left operand pool index.
        a: u32,
        /// Right operand pool index.
        b: u32,
        /// Output pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] += x[i]`.
    AccAdd {
        /// Input pool index.
        x: u32,
        /// Accumulator pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] += a[i] * b[i]`.
    MulAcc {
        /// Left operand pool index.
        a: u32,
        /// Right operand pool index.
        b: u32,
        /// Accumulator pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `y[i] = a[i] * b[i]`.
    CwiseMult {
        /// Left operand pool index.
        a: u32,
        /// Right operand pool index.
        b: u32,
        /// Output pool index.
        y: u32,
        /// Element count.
        len: u32,
    },
    /// `dst[i] = src[i]`.
    Copy {
        /// Source pool index.
        src: u32,
        /// Destination pool index.
        dst: u32,
        /// Element count.
        len: u32,
    },
    /// `out[0] = -log softmax(x)[label]`.
    PickNls {
        /// Logits pool index.
        x: u32,
        /// Scalar loss pool index.
        out: u32,
        /// Picked class.
        label: u32,
        /// Logit count.
        len: u32,
    },
    /// `dx[i] += dloss * d(-log softmax(x)[label])/dx[i]`.
    PickNlsBwd {
        /// Logits pool index.
        x: u32,
        /// Scalar upstream-loss pool index.
        dloss: u32,
        /// Accumulated gradient pool index.
        dx: u32,
        /// Picked class.
        label: u32,
        /// Logit count.
        len: u32,
    },
}

impl MicroOp {
    /// Every op class's mnemonic, indexed by [`MicroOp::class`].
    const MNEMONICS: [&'static str; 20] = [
        "matvec",
        "tmatvec",
        "outer",
        "add_bias",
        "bias_grad",
        "tanh",
        "sigmoid",
        "relu",
        "tanh_bwd",
        "sigmoid_bwd",
        "relu_bwd",
        "sub",
        "acc_sub",
        "add",
        "acc_add",
        "mul_acc",
        "cwise_mult",
        "copy",
        "pick_nls",
        "pick_nls_bwd",
    ];

    /// The op's class: its variant, as an index into
    /// [`MicroOp::MNEMONICS`].
    fn class(&self) -> usize {
        match self {
            MicroOp::MatVec { .. } => 0,
            MicroOp::TMatVec { .. } => 1,
            MicroOp::Outer { .. } => 2,
            MicroOp::AddBias { .. } => 3,
            MicroOp::BiasGrad { .. } => 4,
            MicroOp::Tanh { .. } => 5,
            MicroOp::Sigmoid { .. } => 6,
            MicroOp::Relu { .. } => 7,
            MicroOp::TanhBwd { .. } => 8,
            MicroOp::SigmoidBwd { .. } => 9,
            MicroOp::ReluBwd { .. } => 10,
            MicroOp::Sub { .. } => 11,
            MicroOp::AccSub { .. } => 12,
            MicroOp::Add { .. } => 13,
            MicroOp::AccAdd { .. } => 14,
            MicroOp::MulAcc { .. } => 15,
            MicroOp::CwiseMult { .. } => 16,
            MicroOp::Copy { .. } => 17,
            MicroOp::PickNls { .. } => 18,
            MicroOp::PickNlsBwd { .. } => 19,
        }
    }

    /// Mnemonic, identical to the source [`Instr::mnemonic`] string.
    pub fn mnemonic(&self) -> &'static str {
        Self::MNEMONICS[self.class()]
    }

    /// `(kind, reg, len, rows, cols)` of a matrix-chunk op, `None` for every
    /// other op. Ops with equal keys do the same work against the same
    /// register chunk with different operands: lowering makes them adjacent
    /// (`Lowering::group`) and records runs of them as blocks
    /// ([`block_lens`]), which the sweep runs through one blocked kernel.
    fn chunk_key(&self) -> Option<ChunkKey> {
        match *self {
            MicroOp::MatVec {
                reg,
                len,
                rows,
                cols,
                ..
            } => Some((0, reg, len, rows, cols)),
            MicroOp::TMatVec {
                reg,
                len,
                rows,
                cols,
                ..
            } => Some((1, reg, len, rows, cols)),
            MicroOp::Outer {
                reg,
                len,
                rows,
                cols,
                ..
            } => Some((2, reg, len, rows, cols)),
            _ => None,
        }
    }
}

/// One patchable literal in a lowered op stream: an op whose value depends
/// on the *request* (which embedding row a lookup copies, which gold label a
/// loss picks) rather than on the script's structure. Two batches with equal
/// [`GeneratedScript::key`]s get scripts that differ only at these points, so
/// a cached artifact is re-targeted to a fresh request by overwriting the
/// patched field — no re-lowering, no timeline re-analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchPoint {
    /// VPP whose script holds the source instruction.
    pub vpp: u32,
    /// Instruction index within that VPP's script.
    pub ip: u32,
    /// Index into [`LoweredScript::ops`] (ascending by construction — the
    /// executor walks patch points with a single forward cursor).
    pub op_index: u32,
}

/// A fully lowered script: the compiled artifact one plan + one script set
/// produce, reusable across every run of that identical script — and, via
/// [`LoweredScript::extract_patches`] or [`LoweredScript::patches`], across
/// every batch with the same [`GeneratedScript::key`]. It carries what such
/// a batch reads from its [`GeneratedScript`], so a batch found from its
/// graph needs nothing else.
#[derive(Debug, Clone)]
pub struct LoweredScript {
    /// The owning plan's id ([`PlanSignature::plan_id`]).
    pub plan_id: u64,
    /// Barrier count of the source scripts (for per-run obs).
    pub num_barriers: u32,
    /// One micro-op per compute instruction, sync compiled away: the
    /// reference serial execution order ([`TimelineReport::order`]) with
    /// same-chunk ops made adjacent inside each segment — a permutation of
    /// it that swaps no two conflicting ops.
    pub ops: Vec<MicroOp>,
    /// The cached schedule (what [`super::Session`] would otherwise
    /// re-analyze every run), shared with every session prepared from this
    /// artifact.
    pub timeline: Arc<TimelineReport>,
    /// One past the highest pool index any op touches — bounds-checked once
    /// per run instead of per access.
    pub pool_end: usize,
    /// One past the highest register-arena index any op touches — checked
    /// against the arena once per run.
    pub arena_end: usize,
    /// Largest scratch buffer any op needs (tmatvec/softmax-backward
    /// contributions).
    pub scratch_len: usize,
    /// Ops carrying per-request literals, in ascending `op_index` order:
    /// resident-region `Copy` sources (embedding rows, the loss-seed
    /// constant) and `PickNls`/`PickNlsBwd` labels.
    pub patch_points: Vec<PatchPoint>,
    /// Pool layout of the batch ([`GeneratedScript::layout`]).
    pub layout: Arc<BatchLayout>,
    /// [`GeneratedScript::forward_instructions`].
    pub forward_instructions: usize,
    /// [`GeneratedScript::backward_instructions`].
    pub backward_instructions: usize,
    /// [`ScriptSet::encoded_bytes`] of the scripts (the H2D script copy).
    pub encoded_bytes: usize,
    /// [`GeneratedScript::pool_len`].
    pub pool_len: usize,
    signal_instrs: u64,
    wait_instrs: u64,
    /// The source of each patch point's literal, parallel to
    /// `patch_points`.
    sources: Vec<Literal>,
    /// Parallel to `ops`: how many ops one kernel call starting at the op
    /// runs ([`block_lens`]), `0` inside a block.
    block_len: Vec<u8>,
    /// How sweeps split the waves between two threads.
    waves: WavePlan,
}

impl LoweredScript {
    /// The op ranges the sweep runs one kernel call each, in stream order:
    /// the blocks lowering recorded, and every other op on its own.
    pub fn blocks(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let starts = self.block_len.iter().enumerate().filter(|(_, &n)| n > 0);
        starts.map(|(i, &n)| i..i + usize::from(n))
    }

    /// Reads the per-request literal values out of `gs` at this artifact's
    /// patch points, producing the patch vector the executor applies. For the
    /// script this artifact was lowered from, the patches equal the baked
    /// literals (applying them is a no-op); for any other script with the
    /// same [`GeneratedScript::key`] they re-target the cached ops.
    ///
    /// # Panics
    ///
    /// Panics if `gs` was generated under another key than the script this
    /// artifact was lowered from and a patch point names an instruction of a
    /// different kind — [`LoweredCache`] hands an artifact only to scripts
    /// whose key words equal its entry's, which rules that out.
    pub fn extract_patches(&self, gs: &GeneratedScript) -> Vec<u32> {
        self.patch_points
            .iter()
            .map(|p| {
                let instr = &gs.scripts.script(p.vpp as usize)[p.ip as usize];
                match (instr, &self.ops[p.op_index as usize]) {
                    (Instr::Copy { src, .. }, MicroOp::Copy { .. }) => src.raw(),
                    (Instr::PickNls { label, .. }, MicroOp::PickNls { .. }) => *label,
                    (Instr::PickNlsBwd { label, .. }, MicroOp::PickNlsBwd { .. }) => *label,
                    (i, o) => panic!(
                        "patch point {p:?} misaligned: script instr {i:?} vs lowered op {o:?}"
                    ),
                }
            })
            .collect()
    }

    /// The patch vector of a batch built as `graph`, read from the graph
    /// nodes the generator named as the literals' sources — equal to
    /// [`LoweredScript::extract_patches`] on the scripts `graph` would
    /// generate.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not structurally identical to the graph this
    /// artifact was lowered from ([`LoweredCache::lookup_graph`] only
    /// returns it to graphs that are).
    pub fn patches(&self, graph: &Graph, tables: &TableLayout) -> Vec<u32> {
        self.sources
            .iter()
            .map(|source| match *source {
                Literal::Resident(offset) => offset,
                Literal::Row(n) => match graph.node(n).op {
                    Op::Lookup { table, index } => tables.row_offset(table, index).raw(),
                    ref op => panic!("patch source {n} is {op:?}, not a lookup"),
                },
                Literal::Label(n) => match graph.node(n).op {
                    Op::PickNegLogSoftmax { label } => label as u32,
                    ref op => panic!("patch source {n} is {op:?}, not a pick"),
                },
            })
            .collect()
    }

    /// Each planned wave's op range and the piece of each of its ops. Only
    /// the tests read it, to check the plan against every pair of ops.
    #[doc(hidden)]
    pub fn wave_pieces(&self) -> impl Iterator<Item = (std::ops::Range<usize>, &[u8])> {
        let waves = self.waves.waves.iter();
        waves.map(|w| (w.start as usize..w.end as usize, self.waves.pieces(w)))
    }

    /// FNV-1a over the debug rendering of the wave plan: every planned
    /// wave and every op's piece. Only the tests read it, to pin the plan
    /// across commits.
    #[doc(hidden)]
    pub fn wave_plan_digest(&self) -> u64 {
        let text = format!("{:?}", self.waves);
        hash_words(&text.bytes().map(u32::from).collect::<Vec<_>>())
    }

    /// Adds to the `script.*` obs counters what generating a batch's scripts
    /// would have added, so a snapshot reads the same with and without the
    /// graph-keyed shortcut.
    pub fn replay_generate_obs(&self) {
        if vpps_obs::enabled() {
            let instructions = self.forward_instructions + self.backward_instructions;
            let sync = (self.signal_instrs, self.wait_instrs);
            count_scripts(instructions as u64, self.num_barriers, sync);
        }
    }
}

/// Arena offset of a bias chunk, for an op that sweeps `len` elements of it.
/// The executor slices `len` elements from that offset, so an op longer than
/// its chunk would read the neighbouring chunk: refuse it at lower time.
fn bias_reg(c: &Chunk, len: u32) -> u32 {
    assert!(
        len as usize <= c.len(),
        "lowering: bias op of {len} elements exceeds its {}-element chunk",
        c.len()
    );
    c.offset
}

/// `chunk`'s entry in the plan, checked to be a gradient chunk when `op`
/// writes it and a value chunk when it reads it, and to belong to `vpp`,
/// the VPP whose script holds `op`. The value half of the arena stays
/// resident across sweeps (`RegCache`), so an op that wrote a value chunk
/// would corrupt every later batch; and the wave planner ties the ops of
/// one chunk by their VPP ([`WavePlan`]): refuse either at lower time.
fn checked_chunk<'d>(
    dist: &'d Distribution,
    chunk: ChunkId,
    vpp: u32,
    op: &str,
    writes: bool,
) -> &'d Chunk {
    let c = dist.chunk(chunk);
    let want = if writes { "gradient" } else { "value" };
    assert!(
        c.is_grad == writes,
        "lowering: {op} must use a {want} chunk"
    );
    assert!(
        c.vpp == vpp as usize,
        "lowering: {op} of VPP {vpp} addresses a chunk of VPP {}",
        c.vpp
    );
    c
}

fn lower_instr(instr: &Instr, dist: &Distribution, vpp: u32) -> Option<MicroOp> {
    Some(match *instr {
        Instr::Signal { .. } | Instr::Wait { .. } => return None,
        Instr::MatVecChunk { chunk, len, x, y } => {
            let c = checked_chunk(dist, chunk, vpp, "matvec", false);
            MicroOp::MatVec {
                reg: c.offset,
                x: x.raw(),
                y: y.raw() + c.row_start as u32,
                len,
                rows: c.rows as u32,
                cols: c.cols as u32,
            }
        }
        Instr::TMatVecChunk { chunk, len, dy, dx } => {
            let c = checked_chunk(dist, chunk, vpp, "t-matvec", false);
            MicroOp::TMatVec {
                reg: c.offset,
                dy: dy.raw() + c.row_start as u32,
                dx: dx.raw(),
                len,
                rows: c.rows as u32,
                cols: c.cols as u32,
            }
        }
        Instr::OuterChunk { chunk, len, x, dy } => {
            let c = checked_chunk(dist, chunk, vpp, "outer product", true);
            MicroOp::Outer {
                reg: c.offset,
                x: x.raw(),
                dy: dy.raw() + c.row_start as u32,
                len,
                rows: c.rows as u32,
                cols: c.cols as u32,
            }
        }
        Instr::AddBiasChunk { chunk, len, x, y } => MicroOp::AddBias {
            reg: bias_reg(checked_chunk(dist, chunk, vpp, "add-bias", false), len),
            x: x.raw(),
            y: y.raw(),
            len,
        },
        Instr::BiasGradChunk { chunk, len, dy } => MicroOp::BiasGrad {
            reg: bias_reg(checked_chunk(dist, chunk, vpp, "bias-grad", true), len),
            dy: dy.raw(),
            len,
        },
        Instr::Tanh { len, x, y } => MicroOp::Tanh {
            x: x.raw(),
            y: y.raw(),
            len,
        },
        Instr::Sigmoid { len, x, y } => MicroOp::Sigmoid {
            x: x.raw(),
            y: y.raw(),
            len,
        },
        Instr::Relu { len, x, y } => MicroOp::Relu {
            x: x.raw(),
            y: y.raw(),
            len,
        },
        Instr::TanhBwd { len, y, dy, dx } => MicroOp::TanhBwd {
            y: y.raw(),
            dy: dy.raw(),
            dx: dx.raw(),
            len,
        },
        Instr::SigmoidBwd { len, y, dy, dx } => MicroOp::SigmoidBwd {
            y: y.raw(),
            dy: dy.raw(),
            dx: dx.raw(),
            len,
        },
        Instr::ReluBwd { len, y, dy, dx } => MicroOp::ReluBwd {
            y: y.raw(),
            dy: dy.raw(),
            dx: dx.raw(),
            len,
        },
        Instr::Sub { len, a, b, y } => MicroOp::Sub {
            a: a.raw(),
            b: b.raw(),
            y: y.raw(),
            len,
        },
        Instr::AccSub { len, x, y } => MicroOp::AccSub {
            x: x.raw(),
            y: y.raw(),
            len,
        },
        Instr::Add { len, a, b, y } => MicroOp::Add {
            a: a.raw(),
            b: b.raw(),
            y: y.raw(),
            len,
        },
        Instr::AccAdd { len, x, y } => MicroOp::AccAdd {
            x: x.raw(),
            y: y.raw(),
            len,
        },
        Instr::MulAcc { len, a, b, y } => MicroOp::MulAcc {
            a: a.raw(),
            b: b.raw(),
            y: y.raw(),
            len,
        },
        Instr::CwiseMult { len, a, b, y } => MicroOp::CwiseMult {
            a: a.raw(),
            b: b.raw(),
            y: y.raw(),
            len,
        },
        Instr::Copy { len, src, dst } => MicroOp::Copy {
            src: src.raw(),
            dst: dst.raw(),
            len,
        },
        Instr::PickNls { len, x, out, label } => MicroOp::PickNls {
            x: x.raw(),
            out: out.raw(),
            label,
            len,
        },
        Instr::PickNlsBwd {
            len,
            x,
            dloss,
            dx,
            label,
        } => MicroOp::PickNlsBwd {
            x: x.raw(),
            dloss: dloss.raw(),
            dx: dx.raw(),
            label,
            len,
        },
    })
}

fn overlaps(a: (u32, u32), b: (u32, u32)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

/// The pool ranges one op touches, as `(start, len)`: the two it reads (the
/// one range twice for an op that reads one) and the one it writes,
/// [`NO_WRITE`] for an op that writes none — 24 bytes, what the lowering
/// pass keeps for every op of the stream ([`block_lens`] and the wave
/// planner read the rest off the op itself).
#[derive(Clone, Copy)]
struct Ranges {
    reads: [(u32, u32); 2],
    write: (u32, u32),
}

/// [`Ranges::write`] of an op that writes no pool memory: a range no
/// range overlaps.
const NO_WRITE: (u32, u32) = (u32::MAX, 0);

impl Ranges {
    fn of(op: &MicroOp) -> Self {
        let (reads, write) = match *op {
            MicroOp::MatVec {
                x, y, len, rows, ..
            } => ([(x, len); 2], (y, rows)),
            MicroOp::TMatVec {
                dy, dx, len, rows, ..
            } => ([(dy, rows); 2], (dx, len)),
            MicroOp::Outer {
                x, dy, len, rows, ..
            } => ([(x, len), (dy, rows)], NO_WRITE),
            MicroOp::BiasGrad { dy, len, .. } => ([(dy, len); 2], NO_WRITE),
            MicroOp::AddBias { x, y, len, .. }
            | MicroOp::Tanh { x, y, len }
            | MicroOp::Sigmoid { x, y, len }
            | MicroOp::Relu { x, y, len }
            | MicroOp::AccSub { x, y, len }
            | MicroOp::AccAdd { x, y, len } => ([(x, len); 2], (y, len)),
            MicroOp::TanhBwd { y, dy, dx, len }
            | MicroOp::SigmoidBwd { y, dy, dx, len }
            | MicroOp::ReluBwd { y, dy, dx, len } => ([(y, len), (dy, len)], (dx, len)),
            MicroOp::Sub { a, b, y, len }
            | MicroOp::Add { a, b, y, len }
            | MicroOp::CwiseMult { a, b, y, len }
            | MicroOp::MulAcc { a, b, y, len } => ([(a, len), (b, len)], (y, len)),
            MicroOp::Copy { src, dst, len } => ([(src, len); 2], (dst, len)),
            MicroOp::PickNls { x, out, len, .. } => ([(x, len); 2], (out, 1)),
            MicroOp::PickNlsBwd {
                x, dloss, dx, len, ..
            } => ([(x, len), (dloss, 1)], (dx, len)),
        };
        Ranges { reads, write }
    }

    /// The range the op writes, if it writes one.
    fn write(&self) -> Option<(u32, u32)> {
        (self.write != NO_WRITE).then_some(self.write)
    }

    /// `true` when one of the two ops writes a pool range the other reads
    /// or writes.
    fn conflicts_with(&self, other: &Ranges) -> bool {
        let hits = |w: (u32, u32), reader: &Ranges| reader.reads.iter().any(|r| overlaps(*r, w));
        hits(self.write, other) || hits(other.write, self) || overlaps(self.write, other.write)
    }
}

/// The register-arena span one op reads — or, flagged `true`, writes;
/// `None` for an op that only touches the pool.
fn arena_span(op: &MicroOp) -> Option<((u32, u32), bool)> {
    match *op {
        MicroOp::MatVec {
            reg, rows, cols, ..
        }
        | MicroOp::TMatVec {
            reg, rows, cols, ..
        } => Some(((reg, rows * cols), false)),
        MicroOp::Outer {
            reg, rows, cols, ..
        } => Some(((reg, rows * cols), true)),
        MicroOp::AddBias { reg, len, .. } => Some(((reg, len), false)),
        MicroOp::BiasGrad { reg, len, .. } => Some(((reg, len), true)),
        _ => None,
    }
}

/// What one op touches: its pool [`Ranges`] and its [`arena_span`].
#[derive(Clone, Copy)]
struct Access {
    pool: Ranges,
    arena: Option<((u32, u32), bool)>,
}

impl Access {
    fn of(op: &MicroOp) -> Self {
        Access {
            pool: Ranges::of(op),
            arena: arena_span(op),
        }
    }

    /// `true` when executing the two ops in either order could give
    /// different results: one writes a pool or arena range the other reads
    /// or writes. Two accumulations into one target conflict too — f32
    /// addition does not commute across roundings.
    fn conflicts_with(&self, other: &Access) -> bool {
        self.pool.conflicts_with(&other.pool)
            || match (self.arena, other.arena) {
                (Some((a, a_writes)), Some((b, b_writes))) => {
                    (a_writes || b_writes) && overlaps(a, b)
                }
                _ => false,
            }
    }
}

/// A summary of what one op (or a set of ops) touches: one bit per block of
/// everything it reads and of everything it writes — block `b` of the pool
/// (256 elements) at bit `b % 64`, block `b` of the arena (2048 elements) at
/// bit `64 + b % 64`. Two overlapping ranges share a block, hence a bit, so
/// disjoint summaries prove two op sets conflict-free in two `AND`s.
#[derive(Clone, Copy, Default)]
struct Blocks {
    read: u128,
    write: u128,
}

impl Blocks {
    fn of(access: &Access) -> Self {
        // The blocks of `(start, len)`: a run of bits that wraps at 64.
        fn bits(shift: u32, (start, len): (u32, u32)) -> u128 {
            let (first, last) = (start >> shift, (start + len.saturating_sub(1)) >> shift);
            let run = u64::MAX >> 63u32.saturating_sub(last - first);
            run.rotate_left(first).into()
        }
        let mut blocks = Blocks {
            read: bits(8, access.pool.reads[0]) | bits(8, access.pool.reads[1]),
            write: access.pool.write().map_or(0, |w| bits(8, w)),
        };
        match access.arena {
            Some((span, true)) => blocks.write |= bits(11, span) << 64,
            Some((span, false)) => blocks.read |= bits(11, span) << 64,
            None => {}
        }
        blocks
    }

    /// `false` only if nothing `self` writes is read or written by `other`
    /// and nothing `other` writes is read by `self`.
    fn may_conflict(&self, other: &Blocks) -> bool {
        self.write & (other.read | other.write) | other.write & self.read != 0
    }
}

/// A [`MicroOp::chunk_key`]: a tuple, which compares field by field.
type ChunkKey = (u32, u32, u32, u32, u32);

/// While a segment is grouped: a chunk key's latest group, the op that
/// opened it, and the [`Blocks`] of every op placed in a later group so far
/// — what an op joining that group would end up in front of.
type Home = (u32, u32, Blocks);

/// One barrier level of the stream, as the lowering pass records it where
/// its segments meet their `Signal`: where its ops start — they end where
/// the next level's start — and the elements its chunk ops process
/// (`None`: it has none).
#[derive(Clone, Copy)]
struct Level {
    barrier: u32,
    start: u32,
    work: Option<u64>,
}

/// What names a segment's barrier level from its last `(vpp, ip)`, when the
/// lowering pass records levels.
type LevelOf<'a> = Option<&'a dyn Fn((u32, u32)) -> u32>;

/// The lowering pass: the stream it emits, the segment in hand — one VPP's
/// run of compute ops with no `Signal`/`Wait` between them, held apart until
/// it ends — with the buffers grouping it needs, and the levels the wave
/// planner reads. One per thread (`LOWERING`), its buffers reused from
/// segment to segment and from artifact to artifact.
#[derive(Default)]
struct Lowering {
    ops: Vec<MicroOp>,
    /// Parallel to `ops`: the pool ranges each op touches, derived once, as
    /// the op is lowered; [`block_lens`] and the wave planner read them.
    /// Reserved to the stream's length, never grown by doubling.
    ranges: Vec<Ranges>,
    patch_points: Vec<PatchPoint>,
    /// The source of each patch point's literal.
    sources: Vec<Literal>,
    /// One past the highest pool index an op touches.
    pool_end: usize,
    /// Largest scratch buffer an op needs.
    scratch_len: usize,
    /// One past the highest register-arena index an op touches.
    arena_end: usize,
    /// The lowest pool index an op writes.
    write_floor: usize,
    /// The segment's ops in their original order, each with its index into
    /// `keys` (`None`: no chunk key) and what it touches.
    segment: Vec<(MicroOp, Option<usize>, Access)>,
    /// The segment's distinct chunk keys, each with its [`Home`] once it has
    /// one.
    keys: Vec<(ChunkKey, Option<Home>)>,
    /// `true` once an op of the segment has a key that an op before it
    /// has, but not the op just before it: only then can grouping move an
    /// op.
    apart: bool,
    /// The elements the segment's chunk ops process (`None`: it has none).
    work: Option<u64>,
    /// While grouping, per op of the segment: what it touches, summarised.
    summaries: Vec<Blocks>,
    /// While grouping, per op: its group, then its index in the grouped
    /// order; then per index, the op there.
    slot: Vec<u32>,
    placed: Vec<u32>,
    /// While grouping, per group: its size, then its offset in the grouped
    /// order.
    sizes: Vec<u32>,
    /// The levels of the stream, in stream order, when recorded.
    levels: Vec<Level>,
    planner: Planner,
}

thread_local! {
    static LOWERING: RefCell<Lowering> = RefCell::default();
}

impl Lowering {
    /// The one pass over [`TimelineReport::order`] that lowering makes, the
    /// schedule of `gs`, one segment at a time. A segment — a run `(v, ip),
    /// (v, ip + 1), …` of `order`, the part of the stream the barrier
    /// protocol lets nothing else observe half-done, so only orderings
    /// inside it are free — is a slice of one VPP's script, walked in place;
    /// the instructions [`GeneratedScript::literals`] names become patch
    /// points. Each op's [`Access`] is derived once, for the overlap proof,
    /// the bounds and the grouping, and its pool [`Ranges`] are kept for the
    /// kernel calls and the wave plan. A segment joins the stream in its
    /// final order as soon as it ends, and, given `level`, which names a
    /// segment's barrier level from its last `(vpp, ip)`, its level is
    /// recorded ([`Lowering::plan`]).
    ///
    /// # Panics
    ///
    /// Panics if an op's written pool range overlaps one of its read ranges,
    /// if `order` names a sync instruction, or, given `level`, if a level's
    /// segments are not contiguous in the stream.
    fn run_script(
        &mut self,
        gs: &GeneratedScript,
        dist: &Distribution,
        order: &[(u32, u32)],
        level: LevelOf,
    ) {
        let literals = &gs.literals;
        self.start(order.len(), literals.len());
        let vpps = 0..gs.scripts.num_vpps() as u32;
        let mut cursors: Vec<usize> = vpps
            .map(|v| literals.partition_point(|&(lv, ..)| lv < v))
            .collect();
        let mut at = 0;
        while at < order.len() {
            let (v, first) = order[at];
            let mut len = 1;
            while order.get(at + len) == Some(&(v, first + len as u32)) {
                len += 1;
            }
            let body = &gs.scripts.script(v as usize)[first as usize..][..len];
            // The VPP's cursor into the literals meets them in the order
            // the schedule runs its instructions.
            let cursor = &mut cursors[v as usize];
            for (ip, instr) in (first..).zip(body) {
                let op =
                    lower_instr(instr, dist, v).expect("timeline order names a sync instruction");
                let literal = literals
                    .get(*cursor)
                    .filter(|&&(lv, lip, _)| (lv, lip) == (v, ip));
                *cursor += usize::from(literal.is_some());
                self.push(v, ip, op, literal.map(|&(.., source)| source));
            }
            at += len;
            self.end_segment(Some((v, first + len as u32)), level);
        }
    }

    /// Starts a pass over `ops` ops, `literals` of which carry per-request
    /// literals: everything per artifact starts empty, also after a pass
    /// that panicked.
    fn start(&mut self, ops: usize, literals: usize) {
        self.ops = Vec::with_capacity(ops);
        self.patch_points = Vec::with_capacity(literals);
        self.sources = Vec::with_capacity(literals);
        (self.pool_end, self.scratch_len, self.arena_end) = (0, 0, 0);
        self.write_floor = usize::MAX;
        self.ranges.clear();
        self.ranges.reserve_exact(ops);
        self.segment.clear();
        self.keys.clear();
        (self.apart, self.work) = (false, None);
        self.levels.clear();
    }

    /// Adds `op`, instruction `ip` of VPP `vpp`, to the segment in hand.
    #[inline(always)]
    fn push(&mut self, vpp: u32, ip: u32, op: MicroOp, literal: Option<Literal>) {
        let access = Access::of(&op);
        let (reads, write) = (access.pool.reads, access.pool.write());
        for r in reads.iter().chain(&write) {
            self.pool_end = self.pool_end.max(r.0 as usize + r.1 as usize);
        }
        if let Some(((reg, len), _)) = access.arena {
            self.arena_end = self.arena_end.max(reg as usize + len as usize);
        }
        if let Some((at, _)) = write {
            self.write_floor = self.write_floor.min(at as usize);
        }
        let disjoint = |w| reads.iter().all(|r| !overlaps(*r, w));
        assert!(
            write.is_none_or(disjoint),
            "lowering: op {op:?} writes a pool range overlapping its input"
        );
        if let MicroOp::TMatVec { len, .. } | MicroOp::PickNlsBwd { len, .. } = op {
            self.scratch_len = self.scratch_len.max(len as usize);
        }
        if let Some(source) = literal {
            let op_index = (self.ops.len() + self.segment.len()) as u32;
            self.patch_points.push(PatchPoint { vpp, ip, op_index });
            self.sources.push(source);
        }
        let key = op.chunk_key().map(|key| {
            let (.., rows, cols) = key;
            self.work = Some(self.work.unwrap_or(0) + u64::from(rows) * u64::from(cols));
            let keys = &mut self.keys;
            let seen = keys.iter().position(|(k, _)| *k == key);
            self.apart |= seen.is_some() && seen != self.segment.last().and_then(|op| op.1);
            seen.unwrap_or_else(|| {
                keys.push((key, None));
                keys.len() - 1
            })
        });
        self.segment.push((op, key, access));
    }

    /// Ends the segment whose next `(vpp, ip)` would have been `next`
    /// (`None`: none has begun): appends it to the stream in its final order
    /// and, given `level`, adds it to its level. A segment stays as it is
    /// unless some chunk key occurs in it twice with another op between
    /// (else no op can move); then it is grouped by chunk key, and its patch
    /// points — the tail of `patch_points` — move with their ops.
    ///
    /// The rule: an op joins the latest group of its key unless it
    /// [conflicts](Access::conflicts_with) with an op that would then come
    /// after it — one already placed in a later group; otherwise, and for an
    /// op without a key, it opens a new group at the end. Groups are emitted
    /// in the order they were opened, members in their original order. So no
    /// two conflicting ops ever swap — every pool and arena location sees the
    /// same reads, writes and accumulations in the same order as the
    /// reference order, which keeps the grouped sweep bit-identical to it —
    /// and ops without a key (the patchable ones among them) keep their
    /// relative order, so patch points stay ascending.
    ///
    /// Each key keeps the union of what its later groups touch, so a joining
    /// op is tested against one summary; only when that may conflict are the
    /// ops behind it checked one by one.
    // Out of line, as before the pass walked script slices: inlined into
    // it, grouping's exact scan ran ≈ 30 % slower on 16-tree batches.
    #[inline(never)]
    fn end_segment(&mut self, next: Option<(u32, u32)>, level: LevelOf) {
        let start = self.ops.len() as u32;
        if self.apart {
            self.group();
        } else {
            self.ops.extend(self.segment.iter().map(|&(op, ..)| op));
            self.ranges
                .extend(self.segment.iter().map(|&(.., access)| access.pool));
        }
        if let (Some((vpp, ip)), Some(level)) = (next, level) {
            let barrier = level((vpp, ip - 1));
            match self.levels.last_mut() {
                Some(open) if open.barrier == barrier => {
                    open.work = open
                        .work
                        .map_or(self.work, |w| Some(w + self.work.unwrap_or(0)));
                }
                open => {
                    assert!(
                        open.map(|l| l.barrier) < Some(barrier),
                        "lowering: the segments of level {barrier} are not contiguous in the stream"
                    );
                    self.levels.push(Level {
                        barrier,
                        start,
                        work: self.work,
                    });
                }
            }
        }
        self.segment.clear();
        self.keys.clear();
        (self.apart, self.work) = (false, None);
    }

    fn group(&mut self) {
        let base = self.ops.len();
        self.summaries.clear();
        self.summaries
            .extend(self.segment.iter().map(|(.., access)| Blocks::of(access)));
        self.slot.clear();
        self.sizes.clear();
        for (j, &(_, key, access)) in self.segment.iter().enumerate() {
            let summary = self.summaries[j];
            // Only ops after the group's opener can be in a later group.
            let joins = |home: u32, opener: u32, behind: &Blocks| {
                !summary.may_conflict(behind)
                    || (opener as usize..j).all(|i| {
                        self.slot[i] <= home
                            || !self.summaries[i].may_conflict(&summary)
                            || !self.segment[i].2.conflicts_with(&access)
                    })
            };
            let group = match key.map(|k| &mut self.keys[k].1) {
                Some(Some((home, opener, behind))) if joins(*home, *opener, behind) => *home,
                home => {
                    let group = self.sizes.len() as u32;
                    self.sizes.push(0);
                    if let Some(home) = home {
                        *home = Some((group, j as u32, Blocks::default()));
                    }
                    group
                }
            };
            for (_, home) in &mut self.keys {
                if let Some((.., behind)) = home.as_mut().filter(|(home, ..)| *home < group) {
                    behind.read |= summary.read;
                    behind.write |= summary.write;
                }
            }
            self.sizes[group as usize] += 1;
            self.slot.push(group);
        }
        // Stable counting sort by group: sizes to offsets, each op's index,
        // then the ops index by index.
        let mut offset = 0;
        for size in &mut self.sizes {
            offset += std::mem::replace(size, offset);
        }
        self.placed.resize(self.segment.len(), 0);
        for (j, slot) in self.slot.iter_mut().enumerate() {
            let at = &mut self.sizes[*slot as usize];
            (*slot, self.placed[*at as usize]) = (*at, j as u32);
            *at += 1;
        }
        let placed = self.placed.iter().map(|&j| &self.segment[j as usize]);
        self.ops.extend(placed.clone().map(|&(op, ..)| op));
        self.ranges.extend(placed.map(|&(.., access)| access.pool));
        let tail = self.patch_points.iter_mut().rev();
        for patch in tail.take_while(|p| p.op_index as usize >= base) {
            patch.op_index = (base + self.slot[patch.op_index as usize - base] as usize) as u32;
        }
    }

    /// Plans the levels [`Lowering::run_script`] recorded over `order` whose chunk
    /// ops process at least `floor` elements, from the ops and the pool
    /// ranges it kept.
    fn plan(&mut self, order: &[(u32, u32)], floor: u64) -> WavePlan {
        let planner = &mut self.planner;
        planner.plan.waves.clear();
        planner.plan.piece.clear();
        let ends = self.levels.iter().skip(1).map(|l| l.start);
        let ends = ends.chain([self.ops.len() as u32]);
        for (level, end) in self.levels.iter().zip(ends) {
            if let Some(work) = level.work.filter(|&work| work >= floor) {
                planner.plan_wave(&self.ops, &self.ranges, order, level.start..end, work);
            }
        }
        // Exact-size copies: the buffers stay with the planner.
        WavePlan {
            waves: planner.plan.waves.to_vec(),
            piece: planner.plan.piece.to_vec(),
        }
    }
}

/// The kernel calls of the final stream `ops`, whose pool ranges are
/// `ranges`:
/// per op, how many ops one call starting there runs, `0` inside a block.
/// One walk goes front to back over the whole stream, across segment
/// boundaries, and at each op takes the longest block it can: up to
/// [`MAX_BLOCK`] `MatVec`s, or `Outer`s, with the head's
/// [`MicroOp::chunk_key`], no member writing a pool range another member
/// reads or writes. The blocked kernels interleave the members' rows, take
/// every output at once and give each element the members' operations in
/// order, so a block computes what its ops do one by one. `Outer`s write no
/// pool memory, so equal keys are all they need; a `TMatVec`, like every op
/// without a key, runs alone.
fn block_lens(ops: &[MicroOp], ranges: &[Ranges]) -> Vec<u8> {
    let mut lens = vec![0; ops.len()];
    let mut i = 0;
    while i < ops.len() {
        let blocks = matches!(ops[i], MicroOp::MatVec { .. } | MicroOp::Outer { .. });
        let joins = |&j: &usize| {
            let apart = |m: &Ranges| !m.conflicts_with(&ranges[j]);
            ops[j].chunk_key() == ops[i].chunk_key() && ranges[i..j].iter().all(apart)
        };
        let end = ops.len().min(i + if blocks { MAX_BLOCK } else { 1 });
        let n = 1 + (i + 1..end).take_while(joins).count();
        lens[i] = n as u8;
        i += n;
    }
    lens
}

/// Chunk elements (`rows · cols`) a wave must hold before the sweep offers
/// it to the helper thread, and elements an epilogue [`split`] must cover:
/// below it, the handoff costs more than the second core saves (DESIGN.md
/// §8 "Wave-parallel sweep").
const PARALLEL_WAVE_WORK: u64 = 1 << 19;

/// Lowering cuts a wave into pieces of about `1 / PIECES` of its work each:
/// the two threads claim them one at a time, so the last piece bounds how
/// long one waits for the other.
const PIECES: u64 = 8;

/// One planned wave: the ops of one barrier level, `ops[start..end]` of the
/// stream, cut into `pieces` pieces; the piece of op `start + i` is
/// `WavePlan::piece[at + i]`.
#[derive(Debug, Clone, Copy)]
struct Wave {
    start: u32,
    end: u32,
    /// Elements its chunk ops process, `rows · cols` each.
    work: u64,
    pieces: u8,
    at: u32,
}

impl Wave {
    /// `true` when the wave's ops are all tied into one piece.
    fn tied(&self) -> bool {
        self.pieces < 2
    }
}

/// How the sweep splits the stream's waves between two threads, planned
/// once by lowering.
///
/// Two ops of a wave are *tied* when one writes a pool range the other
/// reads or writes (an accumulation counts as a write), or when both write
/// register chunks of one VPP's segment: their order decides the bits.
/// Chunk ops touch only their own VPP's chunks (`checked_chunk`), so ops of
/// two VPPs share no arena location. Untied components touch no location in
/// common, so they commute. Lowering cuts each wave's components, in stream
/// order of their first ops, into pieces of about equal work
/// ([`PIECES`]); the sweeping thread and the helper claim the pieces one at a
/// time, each runs a piece's ops in stream order, and every location still
/// sees the serial sweep's operations in the serial order.
#[derive(Debug, Clone, Default)]
struct WavePlan {
    /// Every planned wave, in stream order.
    waves: Vec<Wave>,
    /// Per op of every planned wave, wave after wave: its piece.
    piece: Vec<u8>,
}

impl WavePlan {
    /// The piece of each op of `wave`.
    fn pieces(&self, wave: &Wave) -> &[u8] {
        &self.piece[wave.at as usize..][..(wave.end - wave.start) as usize]
    }
}

/// Buffers the wave planner reuses from wave to wave, and from plan to plan
/// on one thread.
#[derive(Default)]
struct Planner {
    /// The disjoint-set forest of the tie relation, by op index in the
    /// wave; each root is its component's first op.
    parent: Vec<u32>,
    /// Per op: the elements it processes — `rows · cols` for a chunk op,
    /// its longest pool range for every other op; per root, once tied, its
    /// component's; then its piece.
    work: Vec<u64>,
    /// Per pool write of the wave: its start, then the op, packed
    /// `start << 32 | op` to sort by start; and the buffer sorting them
    /// swaps with.
    writes: Vec<u64>,
    spare: Vec<u64>,
    /// The disjoint regions the writes merge into, `(start, end, writer)`.
    regions: Vec<(u32, u32, u32)>,
    /// Per bucket of pool elements: the first region a read starting there
    /// may overlap.
    first: Vec<u32>,
    /// The plan so far.
    plan: WavePlan,
}

impl Planner {
    fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let up = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = up;
            i = up;
        }
        i
    }

    /// Ties ops `a` and `b`: the smaller root stays the root and takes
    /// over the other's work.
    fn tie(&mut self, a: u32, b: u32) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            let (root, other) = (a.min(b), a.max(b) as usize);
            self.parent[other] = root;
            self.work[root as usize] += self.work[other];
        }
    }

    /// Sorts `writes` — `start << 32 | op`, in ascending `op` order — as
    /// `u64`s without comparing them: one stable counting pass per ten bits
    /// of the starts' offsets from the lowest, lowest bits first.
    fn sort_writes(writes: &mut Vec<u64>, spare: &mut Vec<u64>) {
        let lo = writes.iter().map(|&w| w >> 32).min().unwrap_or(0);
        let span = writes.iter().map(|&w| (w >> 32) - lo).max().unwrap_or(0);
        for shift in (0..u64::BITS - span.leading_zeros()).step_by(10) {
            let digit = |w: u64| (((w >> 32) - lo) >> shift & 0x3ff) as usize;
            let mut at = [0u32; 1 << 10];
            for &w in writes.iter() {
                at[digit(w)] += 1;
            }
            let mut sum = 0;
            for n in &mut at {
                sum += mem::replace(n, sum);
            }
            spare.resize(writes.len(), 0);
            for &w in writes.iter() {
                let to = &mut at[digit(w)];
                spare[*to as usize] = w;
                *to += 1;
            }
            mem::swap(writes, spare);
        }
    }

    /// Ties the ops of the wave `ops`, whose pool ranges are `wave` and whose
    /// reference order is `order`, each root holding its component's work;
    /// returns the wave's work.
    fn tie_wave(&mut self, ops: &[MicroOp], wave: &[Ranges], order: &[(u32, u32)]) -> u64 {
        let n = wave.len() as u32;
        self.parent.clear();
        self.work.clear();
        self.writes.clear();
        // Arena: lowering checked that each chunk op addresses its own
        // VPP's chunks, reading values and writing gradients, so only the
        // ops of one segment can write one chunk: tie them to its first.
        let (mut next, mut writer, mut total) = (None, None, 0);
        for (((i, op), ranges), &(vpp, ip)) in (0..n).zip(ops).zip(wave).zip(order) {
            if next != Some((vpp, ip)) {
                writer = None;
            }
            next = Some((vpp, ip + 1));
            let (at, len) = ranges.write().unwrap_or_default();
            if len > 0 {
                self.writes.push(u64::from(at) << 32 | u64::from(i));
            }
            let (root, work) = match arena_span(op) {
                Some(((_, len), true)) => (*writer.get_or_insert(i), len),
                Some(((_, len), false)) => (i, len),
                None => (i, len.max(ranges.reads[0].1).max(ranges.reads[1].1)),
            };
            self.parent.push(root);
            self.work.push(0);
            self.work[root as usize] += u64::from(work);
            total += u64::from(work);
        }
        // Pool: writers of overlapping ranges, and every reader with the
        // writers of what it reads.
        Self::sort_writes(&mut self.writes, &mut self.spare);
        self.regions.clear();
        for k in 0..self.writes.len() {
            let op = self.writes[k] as u32;
            let (at, len) = wave[op as usize].write().unwrap_or_default();
            match self.regions.last_mut() {
                Some(region) if at < region.1 => {
                    region.1 = region.1.max(at + len);
                    let writer = region.2;
                    self.tie(writer, op);
                }
                _ => self.regions.push((at, at + len, op)),
            }
        }
        let (Some(&(lo, ..)), Some(&(_, hi, _))) = (self.regions.first(), self.regions.last())
        else {
            return total;
        };
        // Per bucket of `width` pool elements from `lo`, about one region
        // each: the first region that ends past the bucket's start, then the
        // number of regions. A read's search starts at its bucket's entry
        // and ends at the next one.
        let regions = mem::take(&mut self.regions);
        let width = u64::from(hi - lo).div_ceil(regions.len() as u64);
        let width = width.next_power_of_two();

        self.first.clear();
        let mut k = 0;
        for start in (lo..hi).step_by(width as usize) {
            while regions[k].1 <= start {
                k += 1;
            }
            self.first.push(k as u32);
        }
        self.first.push(regions.len() as u32);
        for (i, ranges) in (0..n).zip(wave) {
            let reads = ranges.reads;
            let once = if reads[0] == reads[1] { 1 } else { 2 };
            for &(at, len) in &reads[..once] {
                let end = at + len;
                if len == 0 || end <= lo || at >= hi {
                    continue;
                }
                let bucket = (u64::from(at.max(lo) - lo) / width) as usize;
                let (from, to) = (self.first[bucket] as usize, self.first[bucket + 1] as usize);
                let mut k = from + regions[from..to].partition_point(|r| r.1 <= at);
                while k < regions.len() && regions[k].0 < end {
                    self.tie(regions[k].2, i);
                    k += 1;
                }
            }
        }
        self.regions = regions;
        total
    }

    /// Plans the level `wave`, whose chunk ops hold `work` elements, of the
    /// stream `stream`, whose pool ranges are `ranges` and whose reference
    /// order is `order`, into [`Planner::plan`].
    fn plan_wave(
        &mut self,
        stream: &[MicroOp],
        ranges: &[Ranges],
        order: &[(u32, u32)],
        wave: Range<u32>,
        work: u64,
    ) {
        let ops = wave.start as usize..wave.end as usize;
        let total = self.tie_wave(
            &stream[ops.clone()],
            &ranges[ops.clone()],
            &order[ops.clone()],
        );
        // Pieces: components in stream order of their first op, a new
        // piece once the last holds its share of the work.
        let share = total.div_ceil(PIECES).max(1);
        let (mut pieces, mut filled) = (0, share);
        let at = self.plan.piece.len() as u32;
        for i in 0..ops.len() {
            let root = self.find(i as u32) as usize;
            let piece = if root == i {
                if filled >= share {
                    (pieces, filled) = (pieces + 1, 0);
                }
                filled += self.work[i];
                pieces - 1
            } else {
                self.work[root]
            };
            self.work[i] = piece;
            self.plan.piece.push(piece as u8);
        }
        self.plan.waves.push(Wave {
            start: wave.start,
            end: wave.end,
            work,
            pieces: pieces as u8,
            at,
        });
    }
}

/// Lowers `gs` from scratch, under span `engine.lower`: the schedule (span
/// `lower.analyze`), then one pass over its order (span `lower.order`), in
/// which the instructions [`GeneratedScript::literals`] names become the
/// patch points, and one over the stream it emits, which records the kernel
/// calls ([`LoweredScript::blocks`]), then the wave plan, from what the pass
/// kept (span `lower.plan`). Cached callers should go through
/// [`LoweredCache::get_or_lower`] instead.
///
/// # Panics
///
/// Panics if a recorded literal names no compute instruction of the
/// schedule, if the scripts deadlock, or if any op's written pool range
/// overlaps one of its read ranges — the script generator never emits such
/// ops (each destination is a fresh allocation), and the raw-pointer
/// executor depends on that disjointness, so lowering checks it once
/// up front rather than trusting it silently.
pub fn lower(plan: &KernelPlan, gs: &GeneratedScript, cost: &CostModel) -> LoweredScript {
    lower_for(plan, gs, cost, Helpers::Auto)
}

/// [`lower`] for sweeps under `helpers`: plans the waves they may split
/// ([`Helpers::floor`]); a wave without a plan runs serially.
#[doc(hidden)]
pub fn lower_for(
    plan: &KernelPlan,
    gs: &GeneratedScript,
    cost: &CostModel,
    helpers: Helpers,
) -> LoweredScript {
    let _span = vpps_obs::span("engine.lower");
    let dist = plan.distribution();
    let tl = {
        let _span = vpps_obs::span("lower.analyze");
        timeline::analyze(plan, gs, cost, None)
    };
    // A segment's last instruction is followed by the `Signal` of its level.
    let level = |(v, ip): (u32, u32)| match gs.scripts.script(v as usize)[ip as usize + 1] {
        Instr::Signal { barrier } => barrier,
        ref other => panic!("lowering: a segment ends on {other:?}, not a signal"),
    };
    let floor = helpers.floor();
    LOWERING.with_borrow_mut(|stream| {
        let block_len = {
            let _span = vpps_obs::span("lower.order");
            // Per-request literals, which the key leaves out, become patch
            // points.
            let levels = floor.map(|_| &level as &dyn Fn((u32, u32)) -> u32);
            stream.run_script(gs, dist, &tl.order, levels);
            assert_eq!(
                stream.patch_points.len(),
                gs.literals.len(),
                "lowering: a recorded literal names no compute instruction"
            );
            block_lens(&stream.ops, &stream.ranges)
        };
        // A patched copy source is a resident row, below the persistent
        // floor: a wave plan holds for every patch only if no op writes
        // there.
        let waves = {
            let _span = vpps_obs::span("lower.plan");
            let floor = floor.filter(|_| stream.write_floor >= gs.persistent_floor as usize);
            floor.map_or_else(WavePlan::default, |floor| stream.plan(&tl.order, floor))
        };
        let (signal_instrs, wait_instrs) = gs.scripts.sync_instructions();
        LoweredScript {
            plan_id: plan.signature().plan_id(),
            num_barriers: gs.num_barriers,
            timeline: Arc::new(tl),
            // Patched copy sources can land on any resident row, so the
            // executor's single bounds check must cover the whole resident
            // region, not just the rows this particular script happened to
            // read.
            pool_end: stream.pool_end.max(gs.persistent_floor as usize),
            arena_end: stream.arena_end,
            scratch_len: stream.scratch_len,
            patch_points: mem::take(&mut stream.patch_points),
            layout: Arc::clone(&gs.layout),
            forward_instructions: gs.forward_instructions,
            backward_instructions: gs.backward_instructions,
            encoded_bytes: gs.scripts.encoded_bytes(),
            pool_len: gs.pool_len,
            signal_instrs,
            wait_instrs,
            sources: mem::take(&mut stream.sources),
            block_len,
            waves,
            ops: mem::take(&mut stream.ops),
        }
    })
}

#[inline]
unsafe fn view<'x>(base: *mut f32, off: u32, len: u32) -> &'x [f32] {
    std::slice::from_raw_parts(base.add(off as usize), len as usize)
}

#[inline]
#[allow(clippy::mut_from_ref)]
unsafe fn view_mut<'x>(base: *mut f32, off: u32, len: u32) -> &'x mut [f32] {
    std::slice::from_raw_parts_mut(base.add(off as usize), len as usize)
}

/// The memory a sweep runs against, by base pointer: the pool and the
/// register arena.
#[derive(Clone, Copy)]
struct Mem {
    pool: *mut f32,
    arena: *mut f32,
}

// SAFETY: `pool` and `arena` are two addresses, used only through `call`,
// whose callers keep the pieces of a parallel wave from touching one
// location either writes (the plan lowering made); the memory outlives
// both threads' use, since the sweep waits for the helper to leave each
// wave before it goes on.
unsafe impl Send for Mem {}
unsafe impl Sync for Mem {}

/// `op` with its per-request literal set to `value`.
fn patched(mut op: MicroOp, value: u32) -> MicroOp {
    match &mut op {
        MicroOp::Copy { src, .. } => *src = value,
        MicroOp::PickNls { label, .. } | MicroOp::PickNlsBwd { label, .. } => *label = value,
        other => panic!("patch point targets unpatchable op {other:?}"),
    }
    op
}

/// Runs one kernel call: `op`, whose block is `members` (`op` first, one
/// op unless `op` heads a recorded block). `scratch` holds at least the
/// artifact's `scratch_len` elements.
///
/// # Safety
///
/// Every pool and arena range the members touch lies inside `mem`'s
/// memory, and no other thread touches a location they write, or writes
/// one they read, while the call runs (`execute`'s `SAFETY`).
#[inline(always)]
unsafe fn call(mem: Mem, op: MicroOp, members: impl Iterator<Item = MicroOp>, scratch: &mut [f32]) {
    let base = mem.pool;
    match op {
        MicroOp::MatVec {
            reg, rows, cols, ..
        } => {
            let mut xs: [&[f32]; MAX_BLOCK] = [&[]; MAX_BLOCK];
            let mut ys: [&mut [f32]; MAX_BLOCK] = [(); MAX_BLOCK].map(|()| &mut [][..]);
            let mut taken = 0;
            for member in members {
                if let MicroOp::MatVec { x, y, len, .. } = member {
                    xs[taken] = view(base, x, len);
                    ys[taken] = view_mut(base, y, rows);
                }
                taken += 1;
            }
            kernels::matvec_block(
                view(mem.arena, reg, rows * cols),
                cols as usize,
                &xs[..taken],
                &mut ys[..taken],
            );
        }
        MicroOp::TMatVec {
            reg,
            dy,
            dx,
            len,
            rows,
            cols,
        } => {
            let contrib = &mut scratch[..len as usize];
            kernels::tmatvec_contrib(
                view(mem.arena, reg, rows * cols),
                cols as usize,
                view(base, dy, rows),
                contrib,
            );
            kernels::add_assign(view_mut(base, dx, len), contrib);
        }
        MicroOp::Outer {
            reg, rows, cols, ..
        } => {
            let mut xs: [&[f32]; MAX_BLOCK] = [&[]; MAX_BLOCK];
            let mut dys: [&[f32]; MAX_BLOCK] = [&[]; MAX_BLOCK];
            let mut taken = 0;
            for member in members {
                if let MicroOp::Outer { x, dy, len, .. } = member {
                    xs[taken] = view(base, x, len);
                    dys[taken] = view(base, dy, rows);
                }
                taken += 1;
            }
            kernels::outer_block(
                view_mut(mem.arena, reg, rows * cols),
                cols as usize,
                &xs[..taken],
                &dys[..taken],
            );
        }
        MicroOp::AddBias { reg, x, y, len } => {
            let xv = view(base, x, len);
            let out = view_mut(base, y, len);
            out.copy_from_slice(xv);
            for (o, b) in out.iter_mut().zip(view(mem.arena, reg, len)) {
                *o += b;
            }
        }
        MicroOp::BiasGrad { reg, dy, len } => {
            kernels::add_assign(view_mut(mem.arena, reg, len), view(base, dy, len));
        }
        MicroOp::Tanh { x, y, len } => {
            kernels::tanh_into(view(base, x, len), view_mut(base, y, len));
        }
        MicroOp::Sigmoid { x, y, len } => {
            kernels::sigmoid_into(view(base, x, len), view_mut(base, y, len));
        }
        MicroOp::Relu { x, y, len } => {
            let xv = view(base, x, len);
            for (o, v) in view_mut(base, y, len).iter_mut().zip(xv) {
                *o = v.max(0.0);
            }
        }
        MicroOp::TanhBwd { y, dy, dx, len } => {
            let yv = view(base, y, len);
            let dyv = view(base, dy, len);
            for ((o, &a), &b) in view_mut(base, dx, len).iter_mut().zip(yv).zip(dyv) {
                *o += b * (1.0 - a * a);
            }
        }
        MicroOp::SigmoidBwd { y, dy, dx, len } => {
            let yv = view(base, y, len);
            let dyv = view(base, dy, len);
            for ((o, &a), &b) in view_mut(base, dx, len).iter_mut().zip(yv).zip(dyv) {
                *o += b * a * (1.0 - a);
            }
        }
        MicroOp::ReluBwd { y, dy, dx, len } => {
            let yv = view(base, y, len);
            let dyv = view(base, dy, len);
            for ((o, &a), &b) in view_mut(base, dx, len).iter_mut().zip(yv).zip(dyv) {
                *o += if a > 0.0 { b } else { 0.0 };
            }
        }
        MicroOp::Sub { a, b, y, len } => {
            let av = view(base, a, len);
            let bv = view(base, b, len);
            for ((o, &x1), &x2) in view_mut(base, y, len).iter_mut().zip(av).zip(bv) {
                *o = x1 - x2;
            }
        }
        MicroOp::AccSub { x, y, len } => {
            let xv = view(base, x, len);
            for (o, &v) in view_mut(base, y, len).iter_mut().zip(xv) {
                *o += -v;
            }
        }
        MicroOp::Add { a, b, y, len } => {
            let av = view(base, a, len);
            let bv = view(base, b, len);
            for ((o, &x1), &x2) in view_mut(base, y, len).iter_mut().zip(av).zip(bv) {
                *o = x1 + x2;
            }
        }
        MicroOp::AccAdd { x, y, len } => {
            kernels::add_assign(view_mut(base, y, len), view(base, x, len));
        }
        MicroOp::MulAcc { a, b, y, len } => {
            let av = view(base, a, len);
            let bv = view(base, b, len);
            for ((o, &x1), &x2) in view_mut(base, y, len).iter_mut().zip(av).zip(bv) {
                *o += x1 * x2;
            }
        }
        MicroOp::CwiseMult { a, b, y, len } => {
            let av = view(base, a, len);
            let bv = view(base, b, len);
            for ((o, &x1), &x2) in view_mut(base, y, len).iter_mut().zip(av).zip(bv) {
                *o = x1 * x2;
            }
        }
        MicroOp::Copy { src, dst, len } => {
            view_mut(base, dst, len).copy_from_slice(view(base, src, len));
        }
        MicroOp::PickNls { x, out, label, len } => {
            let xv = view(base, x, len);
            let loss = vpps_tensor::softmax::pick_neg_log_softmax(xv, label as usize);
            view_mut(base, out, 1)[0] = loss;
        }
        MicroOp::PickNlsBwd {
            x,
            dloss,
            dx,
            label,
            len,
        } => {
            let contrib = &mut scratch[..len as usize];
            contrib.fill(0.0);
            let (xv, dl) = (view(base, x, len), view(base, dloss, 1)[0]);
            vpps_tensor::softmax::pick_neg_log_softmax_backward(xv, label as usize, dl, contrib);
            kernels::add_assign(view_mut(base, dx, len), contrib);
        }
    }
}

/// Whether a batch's compute half may use the helper thread: a lowered
/// sweep for its waves, the epilogue for its halves ([`split`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Helpers {
    /// Work of at least [`PARALLEL_WAVE_WORK`] elements, when the host has
    /// a second core and no other sweep holds the helper.
    #[default]
    Auto,
    /// Everything on the computing thread.
    Off,
    /// All work that has two pieces or more, the helper taking at least
    /// one, waiting for the helper if another sweep holds it, one core or
    /// many: the test hook.
    Forced,
}

impl Helpers {
    /// The chunk elements a wave needs for lowering to plan it: what a
    /// sweep under `self` may split — [`PARALLEL_WAVE_WORK`] under Auto on
    /// a host of two cores or more, any under Forced, none otherwise. A plan
    /// no sweep uses is not worth its lowering time.
    fn floor(self) -> Option<u64> {
        match self {
            Helpers::Auto => second_core().then_some(PARALLEL_WAVE_WORK),
            Helpers::Off => None,
            Helpers::Forced => Some(0),
        }
    }

    /// `true` when a sweep or epilogue under `self` offers the helper work
    /// of `work` elements.
    fn offers(self, work: u64) -> bool {
        match self {
            Helpers::Auto => work >= PARALLEL_WAVE_WORK,
            Helpers::Off => false,
            Helpers::Forced => true,
        }
    }
}

/// What one sweep did: host ns per op class (timed sweeps), its waves run
/// on two threads, the waves offered to the helper that ran serially
/// because their ops are all tied, and the ops the helper ran.
#[derive(Debug, Default)]
pub(crate) struct SweepStats {
    pub op_ns: Option<OpNs>,
    pub parallel: u64,
    pub serial_tied: u64,
    pub helper_ops: u64,
}

/// One thread's state while a wave's pieces run: its scratch buffer, its
/// clock (timed sweeps) and the ops it ran.
struct Side<'s> {
    scratch: &'s mut [f32],
    clock: Option<OpClock>,
    ops: u64,
}

/// Executes a lowered artifact against `pool` and `cache`, applying
/// `patches` — the per-request literal values from
/// [`LoweredScript::extract_patches`], parallel to
/// [`LoweredScript::patch_points`] — as it sweeps.
///
/// The sweep is branch-light: one match per op, zero allocations (the
/// scratch buffers live with the arena and are reused across ops and runs),
/// no sync arms, chunk operands read straight out of the register arena at
/// the op's literal offset. It is *weight-stationary* where lowering made
/// it possible: each block lowering recorded ([`block_lens`]) — adjacent
/// `MatVec`s (or `Outer`s) of one chunk, up to [`MAX_BLOCK`] — goes through
/// one register-blocked kernel call, so each chunk row is loaded once for
/// all of them; the sweep reads each call's length and forms no block. The
/// blocked [`kernels`] give every output element the per-row kernels'
/// operations in their order, so results are bit-identical to
/// [`super::EventInterp`] replaying the reference serial order. Patch
/// points are ascending in op index, so patching costs one cursor compare
/// per op.
///
/// Each wave `helpers` offers to the helper thread ([`WavePlan`]) runs on
/// two threads, which claim its pieces one at a time. Every location sees
/// the serial sweep's operations in the same order, so the bits are the
/// same.
///
/// `TIMED` adds host time per op class ([`OpClock`]), each thread for its
/// own calls; the untimed instantiation reads no clock.
///
/// # Panics
///
/// Panics if the artifact references pool memory beyond `pool`'s capacity
/// or arena memory beyond `cache`'s arena (laid out for another plan), or if
/// `patches` does not match the artifact's patch points.
pub(crate) fn execute<const TIMED: bool>(
    art: &LoweredScript,
    patches: &[u32],
    pool: &mut Pool,
    cache: &mut RegCache,
    helpers: Helpers,
) -> SweepStats {
    let raw = pool.raw_mut();
    assert!(
        art.pool_end <= raw.len(),
        "lowered script references pool index {} beyond capacity {}",
        art.pool_end,
        raw.len()
    );
    assert_eq!(
        patches.len(),
        art.patch_points.len(),
        "patch vector does not match the artifact's patch points"
    );
    let (arena, scratch) = cache.arena_and_scratch(art.scratch_len);
    assert!(
        art.arena_end <= arena.len(),
        "lowered script references arena index {} beyond its {} elements",
        art.arena_end,
        arena.len()
    );
    let mem = Mem {
        pool: raw.as_mut_ptr(),
        arena: arena.as_mut_ptr(),
    };
    let (scratch, helper_scratch) = scratch.split_at_mut(art.scratch_len);
    let mut stats = SweepStats::default();
    let mut helper_ns = [0; MicroOp::MNEMONICS.len()];
    let mut clock = TIMED.then(|| OpClock::start(art.ops.first().map_or(0, MicroOp::class)));
    let (mut next_patch, mut done) = (0, 0);
    let mut lease = None;
    let plan = &art.waves;
    let waves = plan.waves.iter().filter(|w| helpers.offers(w.work));
    // SAFETY: `mem.pool` comes from a unique `&mut` borrow of the pool held
    // for the whole sweep, `mem.arena` and the two scratch halves from one
    // of `cache`. The rest are facts lowering established once. Bounds:
    // every op's pool and arena ranges lie below `pool_end` and
    // `arena_end`, checked above. On one thread: every op's written range
    // is disjoint from its read ranges, and every recorded block's members
    // write pool ranges no other member reads or writes (`block_lens`), so
    // each call's shared/mutable views never alias. Across the pieces of a
    // wave (`Planner::plan_wave`): no op of one writes a pool or arena
    // range an op of another reads or writes — such ops are tied to one
    // piece — and each thread has its own scratch half.
    // Patching preserves all of it: a patched copy source stays below the
    // persistent floor (covered by `pool_end`; a plan exists only if every
    // write lands above the floor), a patched label changes no range, and
    // no patch point lies inside a block.
    unsafe {
        for wave in waves {
            if wave.tied() {
                stats.serial_tied += 1;
                continue;
            }
            let Some(lease) = lease.get_or_insert_with(|| Lease::take(helpers)) else {
                continue;
            };
            let serial = done..wave.start as usize;
            run_serial(
                art,
                patches,
                serial,
                &mut next_patch,
                mem,
                scratch,
                &mut clock,
            );
            if let Some(clock) = &mut clock {
                clock.pause();
            }
            let sides = [
                Mutex::new(Side {
                    scratch: &mut *scratch,
                    clock: clock.take(),
                    ops: 0,
                }),
                Mutex::new(Side {
                    scratch: &mut *helper_scratch,
                    clock: None,
                    ops: 0,
                }),
            ];
            let pieces = plan.pieces(wave);
            lease.share(usize::from(wave.pieces), &|k, side| {
                let mut side = sides[side].lock().unwrap_or_else(PoisonError::into_inner);
                run_piece::<TIMED>(art, patches, wave, pieces, k as u8, mem, &mut side);
            });
            let [mine, helper] =
                sides.map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner));
            clock = mine.clock;
            if let Some(clock) = &mut clock {
                clock.resume();
            }
            if let Some(ns) = helper.clock.map(OpClock::stop) {
                helper_ns
                    .iter_mut()
                    .zip(ns)
                    .for_each(|(sum, ns)| *sum += ns);
            }
            stats.parallel += 1;
            stats.helper_ops += helper.ops;
            next_patch = art.patch_points.partition_point(|p| p.op_index < wave.end);
            done = wave.end as usize;
        }
        let rest = done..art.ops.len();
        run_serial(
            art,
            patches,
            rest,
            &mut next_patch,
            mem,
            scratch,
            &mut clock,
        );
    }
    assert_eq!(
        next_patch,
        patches.len(),
        "a patch point names a chunk op inside a block"
    );
    stats.op_ns = clock.map(|clock| {
        let mut ns = clock.stop();
        ns.iter_mut()
            .zip(helper_ns)
            .for_each(|(sum, ns)| *sum += ns);
        ns
    });
    stats
}

/// Runs `ops[range]` of `art` in stream order, one kernel call per recorded
/// block, patching with `patches` from cursor `next_patch` on.
///
/// # Safety
///
/// As [`call`], for every op of `range`.
#[inline(always)]
unsafe fn run_serial(
    art: &LoweredScript,
    patches: &[u32],
    range: std::ops::Range<usize>,
    next_patch: &mut usize,
    mem: Mem,
    scratch: &mut [f32],
    clock: &mut Option<OpClock>,
) {
    let mut i = range.start;
    while i < range.end {
        let mut op = art.ops[i];
        // A block the range's ends cut runs in parts.
        let taken = usize::from(art.block_len[i]).clamp(1, range.end - i);
        if let Some(clock) = clock {
            clock.enter(op.class());
        }
        if *next_patch < art.patch_points.len()
            && art.patch_points[*next_patch].op_index as usize == i
        {
            op = patched(op, patches[*next_patch]);
            *next_patch += 1;
        }
        call(mem, op, art.ops[i..i + taken].iter().copied(), scratch);
        i += taken;
    }
}

/// Runs piece `k` of `wave` of `art` on `side`: the ops `pieces` names `k`,
/// in stream order, a block lowering recorded in one call if the piece
/// holds it whole, else op by op.
///
/// # Safety
///
/// As the sweep's (`execute`): the wave's other pieces run at the same
/// time.
unsafe fn run_piece<const TIMED: bool>(
    art: &LoweredScript,
    patches: &[u32],
    wave: &Wave,
    pieces: &[u8],
    k: u8,
    mem: Mem,
    side: &mut Side,
) {
    let (points, start) = (&art.patch_points, wave.start as usize);
    if TIMED {
        let first = pieces.iter().position(|&p| p == k);
        let class = first.map_or(0, |j| art.ops[start + j].class());
        side.clock
            .get_or_insert_with(|| OpClock::start(class))
            .resume();
    }
    let mut next_patch = points.partition_point(|p| p.op_index < wave.start);
    let mut j = 0;
    while let Some(skip) = pieces[j..].iter().position(|&p| p == k) {
        j += skip;
        let i = start + j;
        let len = usize::from(art.block_len[i]);
        let whole = len > 1
            && pieces
                .get(j..j + len)
                .is_some_and(|m| m.iter().all(|&p| p == k));
        let taken = if whole { len } else { 1 };
        let mut op = art.ops[i];
        if let Some(clock) = &mut side.clock {
            clock.enter(op.class());
        }
        while points
            .get(next_patch)
            .is_some_and(|p| (p.op_index as usize) < i)
        {
            next_patch += 1;
        }
        if points
            .get(next_patch)
            .is_some_and(|p| p.op_index as usize == i)
        {
            op = patched(op, patches[next_patch]);
        }
        call(mem, op, art.ops[i..i + taken].iter().copied(), side.scratch);
        side.ops += taken as u64;
        j += taken;
    }
    if let Some(clock) = &mut side.clock {
        clock.pause();
    }
}

/// `true` when this process may run on two cores or more.
pub(crate) fn second_core() -> bool {
    static SECOND_CORE: OnceLock<bool> = OnceLock::new();
    let cores = || thread::available_parallelism().is_ok_and(|n| n.get() > 1);
    *SECOND_CORE.get_or_init(cores)
}

/// The posted job of the helper thread, null while none is.
static POSTED: AtomicPtr<Job> = AtomicPtr::new(std::ptr::null_mut());
/// Held by the sweep that has the helper.
static BUSY: Mutex<()> = Mutex::new(());
/// The helper thread, spawned on first use; `None` if the OS refused it.
static HELPER: OnceLock<Option<Thread>> = OnceLock::new();

/// How long a waiting thread spins before it parks or yields: longer than
/// the gap between two parallel waves of one sweep, much shorter than the
/// waves.
const SPIN: Duration = Duration::from_micros(200);

/// Waits until `ready()`: spins for [`SPIN`], then parks (woken by
/// `unpark`) or, where nobody will unpark it, yields.
fn wait(mut ready: impl FnMut() -> bool, park: bool) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !ready() {
        spins = spins.wrapping_add(1);
        if !spins.is_multiple_of(64) || start.elapsed() < SPIN {
            std::hint::spin_loop();
        } else if park {
            thread::park();
        } else {
            thread::yield_now();
        }
    }
}

/// Work the two threads share: pieces `0..pieces`, each claimed once — by
/// the poster from the front, by the helper from the back, so each thread
/// keeps to its end of the stream from wave to wave.
struct Job {
    /// Runs piece `k` on side `s` (`0`: the poster, `1`: the helper). Its
    /// lifetime is erased: the poster keeps it alive until the helper has
    /// left the job.
    piece: *const (dyn Fn(usize, usize) + Sync),
    /// The pieces neither thread has claimed: `front << 32 | back`, the
    /// range `front..back`.
    unclaimed: AtomicU64,
    left: AtomicBool,
    panicked: AtomicBool,
    poster: Thread,
}

impl Job {
    /// The next piece from `side`'s end that no thread has claimed yet,
    /// claimed.
    fn claim(&self, side: usize) -> Option<usize> {
        let claim = |range: u64| {
            let (front, back) = (range >> 32, range & u64::from(u32::MAX));
            match side {
                _ if front == back => None,
                0 => Some(range + (1 << 32)),
                _ => Some(range - 1),
            }
        };
        let range = self
            .unclaimed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim);
        range.ok().map(|range| match side {
            0 => (range >> 32) as usize,
            _ => (range & u64::from(u32::MAX)) as usize - 1,
        })
    }
}

/// The helper's life: take each posted job, run the pieces it claims, then
/// wake the poster. It lives as long as the process and is never joined: a
/// piece's panic is caught here and raised again on the job's poster.
fn serve_jobs() {
    loop {
        let mut job = std::ptr::null_mut();
        wait(
            || {
                let posted = !POSTED.load(Ordering::Relaxed).is_null();
                job = if posted {
                    POSTED.swap(std::ptr::null_mut(), Ordering::Acquire)
                } else {
                    job
                };
                !job.is_null()
            },
            true,
        );
        // SAFETY: the poster keeps the job, and what it points to, alive
        // until it sees `left`.
        let job = unsafe { &*job };
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            while let Some(k) = job.claim(1) {
                // SAFETY: as above.
                unsafe { (*job.piece)(k, 1) };
            }
        }));
        // `job` may be gone once `left` is seen: clone what is needed after.
        let poster = job.poster.clone();
        // Published by the `Release` store of `left`, which the poster reads
        // with `Acquire` before it reads `panicked`.
        job.panicked.store(ran.is_err(), Ordering::Relaxed);
        job.left.store(true, Ordering::Release);
        poster.unpark();
    }
}

/// The helper thread, held for one sweep.
struct Lease {
    helper: &'static Thread,
    /// Under [`Helpers::Forced`]: the helper takes a piece of each job
    /// before this thread takes any.
    forced: bool,
    _busy: MutexGuard<'static, ()>,
}

impl Lease {
    /// The helper, if `helpers` lets this sweep have it: spawned on first
    /// use, one per process; under [`Helpers::Auto`] only on a host of two
    /// cores or more and only while no other sweep holds it.
    fn take(helpers: Helpers) -> Option<Self> {
        let busy = match helpers {
            Helpers::Off => return None,
            Helpers::Auto => {
                if !second_core() {
                    return None;
                }
                match BUSY.try_lock() {
                    Ok(busy) => busy,
                    Err(TryLockError::Poisoned(busy)) => busy.into_inner(),
                    Err(TryLockError::WouldBlock) => return None,
                }
            }
            // The mutex guards no data, so a poisoned one is as good.
            Helpers::Forced => BUSY.lock().unwrap_or_else(PoisonError::into_inner),
        };
        let spawn = || {
            let builder = thread::Builder::new().name("vpps-sweep-helper".into());
            builder.spawn(serve_jobs).ok().map(|h| h.thread().clone())
        };
        let helper = HELPER.get_or_init(spawn).as_ref()?;
        // Wakes it now, so it is spinning by the time work is posted.
        helper.unpark();
        Some(Lease {
            helper,
            forced: helpers == Helpers::Forced,
            _busy: busy,
        })
    }

    /// Runs `piece(k, side)` once for every `k` below `pieces`, claimed one
    /// at a time by this thread (`side` 0, from the front) and the helper
    /// (`side` 1, from the back); returns when all have run. Once this
    /// thread runs out of pieces it takes the job back unless the helper
    /// has taken it, so it never waits for a helper that is not running —
    /// only for the piece the helper is in. Allocation-free: the job lives
    /// on this stack, and the handoff is one atomic store plus an unpark.
    ///
    /// # Panics
    ///
    /// Panics if a piece panicked on the helper; re-raises a panic of a
    /// piece on this thread once the helper has left the job.
    fn share(&self, pieces: usize, piece: &(dyn Fn(usize, usize) + Sync)) {
        type Piece<'a> = *const (dyn Fn(usize, usize) + Sync + 'a);
        // SAFETY: only the lifetime changes; `Retract` keeps `piece` alive
        // until the helper has left the job, even if a piece unwinds.
        let piece_ptr = unsafe { mem::transmute::<Piece<'_>, Piece<'static>>(piece) };
        let job = Job {
            piece: piece_ptr,
            unclaimed: AtomicU64::new(pieces as u64),
            left: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            poster: thread::current(),
        };
        POSTED.store(std::ptr::from_ref(&job).cast_mut(), Ordering::Release);
        self.helper.unpark();
        struct Retract<'a>(&'a Job);
        impl Drop for Retract<'_> {
            fn drop(&mut self) {
                let job = std::ptr::from_ref(self.0).cast_mut();
                let null = std::ptr::null_mut();
                if POSTED
                    .compare_exchange(job, null, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
                {
                    wait(|| self.0.left.load(Ordering::Acquire), true);
                }
            }
        }
        let retract = Retract(&job);
        if self.forced {
            wait(
                || job.unclaimed.load(Ordering::Relaxed) < pieces as u64,
                true,
            );
        }
        while let Some(k) = job.claim(0) {
            piece(k, 0);
        }
        drop(retract);
        assert!(
            !job.panicked.load(Ordering::Relaxed),
            "the sweep helper panicked"
        );
    }
}

/// Runs `a` and `b`, two halves of `work` elements that touch nothing the
/// other writes, so the bits are the same in any order: claimed one at a
/// time by this thread and the helper when `helpers` offers that much work
/// and can have the helper, else one after the other on this thread.
pub(crate) fn split(helpers: Helpers, work: u64, a: impl FnOnce() + Send, b: impl FnOnce() + Send) {
    fn once<F>(half: &Mutex<Option<F>>) -> F {
        let mut half = half.lock().unwrap_or_else(PoisonError::into_inner);
        half.take().expect("a piece runs once")
    }
    match helpers.offers(work).then(|| Lease::take(helpers)).flatten() {
        Some(lease) => {
            let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
            lease.share(2, &|k, _| if k == 0 { once(&a)() } else { once(&b)() });
        }
        None => {
            a();
            b();
        }
    }
}

/// Host nanoseconds per op class ([`MicroOp::class`]).
pub(crate) type OpNs = [u64; MicroOp::MNEMONICS.len()];

/// The clock of a timed sweep. It reads a tick counter only where the op
/// class changes and charges the interval to the class that ran, so a run
/// of same-class ops (a mat-vec block, a chain of element-wise ops) costs
/// one read and the classes' ticks tile the thread's working time;
/// [`OpClock::stop`] scales them to the sweep's `Instant` duration.
struct OpClock {
    ticks: OpNs,
    class: usize,
    since: u64,
    started: (Instant, u64),
}

impl OpClock {
    /// A clock whose first op is of `class`.
    fn start(class: usize) -> Self {
        let now = Self::now();
        Self {
            ticks: [0; MicroOp::MNEMONICS.len()],
            class,
            since: now,
            started: (Instant::now(), now),
        }
    }

    /// The tick counter: the time-stamp counter on x86-64, where one read
    /// costs a fraction of an `Instant::now`, nanoseconds elsewhere.
    #[inline]
    fn now() -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `rdtsc` exists on every x86-64 processor and only
            // reads the time-stamp counter.
            unsafe { core::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }
    }

    /// An op of `class` starts.
    #[inline]
    fn enter(&mut self, class: usize) {
        if class != self.class {
            self.charge();
            self.class = class;
        }
    }

    fn charge(&mut self) {
        let now = Self::now();
        self.ticks[self.class] += now.wrapping_sub(self.since);
        self.since = now;
    }

    /// The thread stops working (it waits for the other one): charge what
    /// ran so far.
    fn pause(&mut self) {
        self.charge();
    }

    /// The thread works again: the wait is charged to no class.
    fn resume(&mut self) {
        self.since = Self::now();
    }

    /// Nanoseconds per class: each class's share of the sweep's ticks, of
    /// its `Instant` duration.
    fn stop(mut self) -> OpNs {
        self.charge();
        let ns = self.started.0.elapsed().as_nanos();
        let ticks = u128::from(self.since.wrapping_sub(self.started.1)).max(1);
        self.ticks
            .map(|t| (u128::from(t) * ns / ticks).try_into().unwrap_or(u64::MAX))
    }
}

/// One cached dispatch: the artifact lowered under `key`.
#[derive(Debug)]
struct Entry {
    /// The full key the entry was lowered under; a lookup is a hit only when
    /// this compares equal, never on the 64-bit hash alone.
    key: Box<[u32]>,
    artifact: Arc<LoweredScript>,
}

/// Word-wise FNV-1a: the cache's bucket hash (equality of the key words
/// decides a hit, so this only has to spread).
fn hash_words(words: &[u32]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &w| {
        (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Cache-hit/miss tallies of a [`LoweredCache`], independent of whether
/// observability is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoweredCacheStats {
    /// Hits: batches whose key was cached, found from their scripts or
    /// their graph.
    pub script_hits: u64,
    /// Misses: batches lowered.
    pub script_misses: u64,
    /// Misses on keys lowered before (evicted and re-lowered).
    pub script_re_misses: u64,
    /// Entries evicted, by FIFO capacity pressure or plan quarantine.
    pub script_evictions: u64,
    /// The subset of `script_hits` found from the batch graph, i.e. without
    /// generating the batch's scripts.
    pub graph_hits: u64,
}

impl std::ops::AddAssign for LoweredCacheStats {
    fn add_assign(&mut self, other: Self) {
        self.script_hits += other.script_hits;
        self.script_misses += other.script_misses;
        self.script_re_misses += other.script_re_misses;
        self.script_evictions += other.script_evictions;
        self.graph_hits += other.graph_hits;
    }
}

/// Cache of lowered artifacts, owned by warm paths ([`crate::Handle`], and
/// through it `vpps-serve`): one bounded FIFO map from a dispatch key
/// ([`GeneratedScript::key`]) to the [`LoweredScript`] lowered under it.
///
/// [`LoweredCache::get_or_lower`] finds an entry from generated scripts,
/// [`LoweredCache::lookup_graph`] from the batch graph before generating —
/// the same key function on the same inputs, so both find the same entry.
/// Entries are bucketed by a 64-bit hash of the key words, and a lookup hits
/// only when the stored words compare equal: a colliding key is a miss,
/// which lowers and takes the slot over. One capacity bounds the map and the
/// oldest entry leaves first — obs counters `lower.script.cache_hit` / `lower.script.cache_miss` /
/// `lower.script.cache_re_miss` / `lower.script.cache_evict`, plus
/// `lower.graph.cache_hit` for the hits found from the graph. Time spent
/// lowering accumulates in the `lower.ns` counter and lowered micro-ops per
/// mnemonic in `lower.ops.<mnemonic>`. The key leaves the [`TableLayout`]
/// out, so a cache serves one table layout, which holds for the
/// [`crate::Handle`] that owns both.
#[derive(Debug)]
pub struct LoweredCache {
    /// By [`hash_words`] of the key.
    entries: HashMap<u64, Entry>,
    /// The buckets of `entries`, oldest first.
    fifo: VecDeque<u64>,
    /// Hashes of every key lowered so far: a miss on one is a re-miss.
    seen: HashSet<u64>,
    /// Scratch for the key words of [`LoweredCache::lookup_graph`].
    key_words: Vec<u32>,
    capacity: usize,
    /// `false` for the reference cache whose [`LoweredCache::lookup_graph`]
    /// always misses.
    indexes_graphs: bool,
    /// What the sweeps of the artifacts it lowers may split, and so what
    /// lowering plans ([`Helpers::floor`]).
    helpers: Helpers,
    stats: LoweredCacheStats,
}

/// The cache's obs counters, each resolved on its first use — obs on or
/// off, as before — so a warm batch neither locks the registry nor looks a
/// name up, and the set of registered names is what it would be without
/// the caching.
const CACHE_COUNTERS: [&str; 5] = [
    "lower.script.cache_hit",
    "lower.graph.cache_hit",
    "lower.script.cache_miss",
    "lower.script.cache_re_miss",
    "lower.script.cache_evict",
];
const HIT: usize = 0;
const GRAPH_HIT: usize = 1;
const MISS: usize = 2;
const RE_MISS: usize = 3;
const EVICT: usize = 4;

/// The counter `CACHE_COUNTERS[which]`.
fn cache_counter(which: usize) -> &'static Counter {
    static COUNTERS: [OnceLock<Counter>; CACHE_COUNTERS.len()] =
        [const { OnceLock::new() }; CACHE_COUNTERS.len()];
    COUNTERS[which].get_or_init(|| vpps_obs::counter(CACHE_COUNTERS[which]))
}

/// Lowered scripts kept per handle before FIFO eviction.
pub const DEFAULT_SCRIPT_CACHE_CAPACITY: usize = 256;

impl Default for LoweredCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SCRIPT_CACHE_CAPACITY)
    }
}

impl LoweredCache {
    /// Creates a cache holding at most `capacity` lowered scripts (>= 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            fifo: VecDeque::new(),
            seen: HashSet::new(),
            key_words: Vec::new(),
            capacity: capacity.max(1),
            indexes_graphs: true,
            helpers: Helpers::Auto,
            stats: LoweredCacheStats::default(),
        }
    }

    /// Test reference: a cache whose [`LoweredCache::lookup_graph`] always
    /// misses, so every dispatch
    /// through it generates its scripts and finds its artifact by
    /// [`LoweredCache::get_or_lower`] — what the warm path is checked
    /// against, bit for bit.
    #[doc(hidden)]
    pub fn without_graph_index(capacity: usize) -> Self {
        Self {
            indexes_graphs: false,
            ..Self::with_capacity(capacity)
        }
    }

    /// Sets what the sweeps of the artifacts this cache lowers from now on
    /// may split: lowering plans only those waves ([`Helpers::floor`]).
    pub(crate) fn set_helpers(&mut self, helpers: Helpers) {
        self.helpers = helpers;
    }

    /// What the sweeps of the artifacts this cache lowers may split.
    pub(crate) fn helpers(&self) -> Helpers {
        self.helpers
    }

    /// The entry in bucket `hash`, if its key words are `key`.
    fn entry(&self, hash: u64, key: &[u32]) -> Option<&Entry> {
        self.entries.get(&hash).filter(|e| *e.key == *key)
    }

    /// Looks `graph`'s dispatch up before its scripts are generated: builds
    /// the key the generator would stamp on them (same plan, pool base, root
    /// and train|infer, and the [`SchedulePolicy::MinLoad`] that
    /// `generate` and `generate_forward_only` schedule with) and returns the
    /// artifact cached under it.
    ///
    /// A hit is not counted here but by [`LoweredCache::note_graph_hit`],
    /// which the caller invokes where it would have called
    /// [`LoweredCache::get_or_lower`] — an attempt that faults before that
    /// point counts nothing on either path.
    pub fn lookup_graph(
        &mut self,
        plan: &KernelPlan,
        graph: &Graph,
        root: NodeId,
        train: bool,
        pool_base: usize,
    ) -> Option<Arc<LoweredScript>> {
        if !self.indexes_graphs {
            return None;
        }
        self.key_words.clear();
        let policy = SchedulePolicy::MinLoad;
        dispatch_key(
            graph,
            root,
            plan,
            pool_base,
            policy,
            train,
            &mut self.key_words,
        );
        let hash = hash_words(&self.key_words);
        let entry = self.entry(hash, &self.key_words)?;
        Some(Arc::clone(&entry.artifact))
    }

    /// Counts one batch found from its graph exactly as
    /// [`LoweredCache::get_or_lower`] counts the hit it stands in for, plus
    /// `graph_hits` / `lower.graph.cache_hit`.
    pub fn note_graph_hit(&mut self) {
        self.stats.script_hits += 1;
        self.stats.graph_hits += 1;
        cache_counter(HIT).incr();
        cache_counter(GRAPH_HIT).incr();
    }

    /// `true` when `key` is the key [`LoweredCache::lookup_graph`] built
    /// last, the key of the batch it looked up.
    pub(crate) fn looked_up(&self, key: &[u32]) -> bool {
        self.indexes_graphs && *self.key_words == *key
    }

    /// `true` unless this is the reference cache whose
    /// [`LoweredCache::lookup_graph`] always misses.
    pub(crate) fn indexes_graphs(&self) -> bool {
        self.indexes_graphs
    }

    /// Returns the artifact cached under `gs.key`, lowering `gs` on a miss
    /// (and evicting the oldest entry when the cache is full).
    pub fn get_or_lower(
        &mut self,
        plan: &KernelPlan,
        gs: &GeneratedScript,
        cost: &CostModel,
    ) -> Arc<LoweredScript> {
        self.get_or_insert(gs, |helpers| {
            let t0 = vpps_obs::enabled().then(Instant::now);
            let artifact = lower_for(plan, gs, cost, helpers);
            (artifact, t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64))
        })
    }

    /// [`LoweredCache::get_or_lower`] with the lowering pass in `lower`,
    /// which returns the artifact `gs` lowers to under the cache's
    /// [`Helpers`] and the host ns it took (read with obs on): on a miss,
    /// the artifact is counted and inserted as one this cache lowered,
    /// however it was made.
    pub(crate) fn get_or_insert(
        &mut self,
        gs: &GeneratedScript,
        lower: impl FnOnce(Helpers) -> (LoweredScript, u64),
    ) -> Arc<LoweredScript> {
        let hash = hash_words(&gs.key);
        if let Some(artifact) = self.entry(hash, &gs.key).map(|e| Arc::clone(&e.artifact)) {
            self.stats.script_hits += 1;
            cache_counter(HIT).incr();
            return artifact;
        }
        self.stats.script_misses += 1;
        cache_counter(MISS).incr();
        if !self.seen.insert(hash) {
            self.stats.script_re_misses += 1;
            cache_counter(RE_MISS).incr();
        }
        let (artifact, lower_ns) = lower(self.helpers);
        let artifact = Arc::new(artifact);
        if vpps_obs::enabled() {
            static OPS: [OnceLock<Counter>; OPCODES] = [const { OnceLock::new() }; OPCODES];
            vpps_obs::counter("lower.ns").add(lower_ns);
            artifact.timeline.count_mix("lower.ops", &OPS);
            let blocked = artifact.block_len.iter().filter(|&&n| n > 1);
            vpps_obs::counter("lower.blocked_ops").add(blocked.map(|&n| u64::from(n)).sum());
        }
        if self.entries.len() == self.capacity && !self.entries.contains_key(&hash) {
            if let Some(oldest) = self.fifo.pop_front() {
                self.entries.remove(&oldest);
                self.stats.script_evictions += 1;
                cache_counter(EVICT).incr();
            }
        }
        let entry = Entry {
            key: gs.key.clone(),
            artifact: Arc::clone(&artifact),
        };
        // A colliding key takes the slot over, and its place in the FIFO.
        if self.entries.insert(hash, entry).is_none() {
            self.fifo.push_back(hash);
        }
        artifact
    }

    /// Hit/miss tallies since construction.
    pub fn stats(&self) -> LoweredCacheStats {
        self.stats
    }

    /// Quarantines one plan: evicts every entry lowered from it, so nothing
    /// cached can outlive a plan the
    /// recovery layer has condemned. Returns the number of entries evicted.
    /// The plan's chunk table needs no eviction — the caller rebuilds the
    /// [`KernelPlan`], and the table with it. The next
    /// [`LoweredCache::get_or_lower`] of a key seen before re-lowers from
    /// scratch and is counted as a *re-miss* (`lower.script.cache_re_miss`).
    pub fn invalidate_plan(&mut self, plan_id: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.artifact.plan_id != plan_id);
        self.fifo.retain(|hash| self.entries.contains_key(hash));
        let evicted = before - self.entries.len();
        if evicted > 0 {
            self.stats.script_evictions += evicted as u64;
            cache_counter(EVICT).add(evicted as u64);
        }
        evicted
    }

    /// Number of cached lowered scripts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no script has been lowered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The lowered execution backend: pre-resolved micro-ops in the reference
/// serial order, bit-identical to [`super::EventInterp`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Lowered;

impl super::ExecutionBackend for Lowered {
    fn name(&self) -> &'static str {
        "lowered"
    }

    fn prepare(
        &self,
        plan: &KernelPlan,
        scripts: &GeneratedScript,
        cfg: crate::exec::interp::ExecConfig,
        cost: &CostModel,
    ) -> super::Session {
        let art = Arc::new(lower(plan, scripts, cost));
        super::Session::from_lowered(plan, scripts, cfg, cost, art)
    }
}

/// The backend's sweep, which [`super::Sweep::run`] runs on a lowered
/// session: [`execute`], splitting waves as `helpers` lets it. With obs on,
/// it is counted per kernel tier, runs timed, adding its op-class times to
/// `engine.op_ns.<mnemonic>`, and counts its waves in `engine.waves.*`.
///
/// # Panics
///
/// As [`execute`].
#[doc(hidden)]
pub fn sweep(
    art: &LoweredScript,
    patches: &[u32],
    pool: &mut Pool,
    cache: &mut RegCache,
    helpers: Helpers,
) {
    if !vpps_obs::enabled() {
        execute::<false>(art, patches, pool, cache, helpers);
        return;
    }
    // Each name is formatted and resolved once, on its first use, so the
    // set of registered names is what it would be without the caching.
    static KERNELS: OnceLock<Counter> = OnceLock::new();
    static OP_NS: [OnceLock<Counter>; MicroOp::MNEMONICS.len()] =
        [const { OnceLock::new() }; MicroOp::MNEMONICS.len()];
    static WAVES: [OnceLock<Counter>; 3] = [const { OnceLock::new() }; 3];
    KERNELS
        .get_or_init(|| vpps_obs::counter(&format!("engine.kernels.{}", kernels::tier())))
        .incr();
    let stats = execute::<true>(art, patches, pool, cache, helpers);
    let op_ns = stats.op_ns.expect("a timed sweep times");
    for ((mnemonic, counter), ns) in MicroOp::MNEMONICS.iter().zip(&OP_NS).zip(op_ns) {
        if ns > 0 {
            counter
                .get_or_init(|| vpps_obs::counter(&format!("engine.op_ns.{mnemonic}")))
                .add(ns);
        }
    }
    let waves = [
        ("engine.waves.parallel", stats.parallel),
        ("engine.waves.serial_tied", stats.serial_tied),
        ("engine.waves.helper_ops", stats.helper_ops),
    ];
    for ((name, n), counter) in waves.into_iter().zip(&WAVES) {
        counter.get_or_init(|| vpps_obs::counter(name)).add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::generate;
    use dyn_graph::Model;
    use gpu_sim::{DeviceConfig, GpuSim};

    struct Fixture {
        model: Model,
        plan: KernelPlan,
        pool: Pool,
        tables: TableLayout,
        gpu: GpuSim,
        cache: LoweredCache,
    }

    fn fixture() -> Fixture {
        fixture_on(3, 1)
    }

    /// A device of `num_sms` SMs and a model of one table and `matrices`
    /// 12 × 12 matrices.
    fn fixture_on(num_sms: usize, matrices: usize) -> Fixture {
        let mut device = DeviceConfig::titan_v();
        device.num_sms = num_sms;
        let mut model = Model::new(11);
        model.add_lookup("E", 9, 12);
        for i in 0..matrices {
            model.add_matrix(&format!("W{i}"), 12, 12);
        }
        let plan = KernelPlan::build(&model, &device, 1).expect("tiny model fits");
        let mut pool = Pool::with_capacity(1 << 16);
        let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
        Fixture {
            model,
            plan,
            pool,
            tables,
            gpu: GpuSim::new(device),
            cache: LoweredCache::default(),
        }
    }

    /// `steps` matvec+tanh layers over row `row`, picked at `label`.
    fn chain(model: &Model, steps: usize, row: usize, label: usize) -> (Graph, NodeId) {
        let table = model.lookups().next().expect("one table").0;
        let w = model.params().next().expect("one matrix").0;
        let mut g = Graph::new();
        let mut h = g.lookup(model, table, row);
        for _ in 0..steps {
            let z = g.matvec(model, w, h);
            h = g.tanh(z);
        }
        let loss = g.pick_neg_log_softmax(h, label);
        (g, loss)
    }

    impl Fixture {
        /// One training dispatch the way `Handle::attempt` drives the cache;
        /// returns whether the cache found it from the graph.
        fn dispatch(&mut self, graph: &Graph, root: NodeId) -> bool {
            self.pool.reset();
            let base = self.pool.used();
            let hit = self.cache.lookup_graph(&self.plan, graph, root, true, base);
            if hit.is_some() {
                self.cache.note_graph_hit();
                return true;
            }
            let gs = generate::generate(graph, root, &self.plan, &mut self.pool, &self.tables)
                .expect("fits");
            self.cache
                .get_or_lower(&self.plan, &gs, self.gpu.cost_model());
            false
        }
    }

    /// Every token through every matrix of the model, twice, with a loss of
    /// its own after the first layer: levels where several mat-vecs share
    /// every chunk, and one where patchable picks sit between them.
    fn fan(model: &Model, rows: &[usize], label: usize) -> (Graph, NodeId) {
        let table = model.lookups().next().expect("one table").0;
        let mut g = Graph::new();
        let mut losses = Vec::new();
        for &row in rows {
            let mut h = g.lookup(model, table, row);
            for layer in 0..2 {
                let projections: Vec<NodeId> =
                    model.params().map(|(w, _)| g.matvec(model, w, h)).collect();
                let z = g.sum(&projections);
                h = g.tanh(z);
                losses.push(g.pick_neg_log_softmax(h, (label + layer) % 12));
            }
        }
        let loss = g.sum(&losses);
        (g, loss)
    }

    /// The segments of `order`, as index ranges.
    fn segments(order: &[(u32, u32)]) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut start = 0;
        for end in 1..=order.len() {
            if end == order.len() || order[end] != (order[end - 1].0, order[end - 1].1 + 1) {
                out.push(start..end);
                start = end;
            }
        }
        out
    }

    impl Lowering {
        /// [`Lowering::run_script`] over hand-built ops: `ops` yields, for each
        /// `(vpp, ip)` of `order`, its micro-op and the source of its
        /// per-request literal if it carries one (`literals` of them do).
        fn run(
            &mut self,
            order: &[(u32, u32)],
            literals: usize,
            ops: impl Iterator<Item = (MicroOp, Option<Literal>)>,
            level: LevelOf,
        ) {
            self.start(order.len(), literals);
            let mut next = None;
            for (&(vpp, ip), (op, literal)) in order.iter().zip(ops) {
                if next != Some((vpp, ip)) {
                    self.end_segment(next, level);
                }
                next = Some((vpp, ip + 1));
                self.push(vpp, ip, op, literal);
            }
            self.end_segment(next, level);
        }
    }

    fn matvec(reg: u32, x: u32, y: u32) -> MicroOp {
        MicroOp::MatVec {
            reg,
            x,
            y,
            len: 8,
            rows: 2,
            cols: 8,
        }
    }

    fn tmatvec(reg: u32, dy: u32, dx: u32) -> MicroOp {
        MicroOp::TMatVec {
            reg,
            dy,
            dx,
            len: 8,
            rows: 2,
            cols: 8,
        }
    }

    fn outer(reg: u32, x: u32, dy: u32) -> MicroOp {
        MicroOp::Outer {
            reg,
            x,
            dy,
            len: 8,
            rows: 2,
            cols: 8,
        }
    }

    /// One VPP's instructions `0..n` with nothing between them.
    fn one_segment(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32).map(|ip| (0, ip)).collect()
    }

    /// Runs hand-built `ops`, the instructions `order` names, through the
    /// lowering pass, the ops at the indices in `patchable` carrying
    /// per-request literals: the ops and patch points of the stream it emits.
    fn regroup(
        ops: &[MicroOp],
        order: &[(u32, u32)],
        patchable: &[usize],
    ) -> (Vec<MicroOp>, Vec<PatchPoint>) {
        let literal = |j: usize| {
            patchable
                .contains(&j)
                .then_some(Literal::Resident(j as u32))
        };
        let mut stream = Lowering::default();
        let ops = ops.iter().enumerate().map(|(j, op)| (*op, literal(j)));
        stream.run(order, patchable.len(), ops, None);
        (stream.ops, stream.patch_points)
    }

    /// [`block_lens`] of hand-built `ops`.
    fn calls(ops: &[MicroOp]) -> Vec<u8> {
        let ranges: Vec<Ranges> = ops.iter().map(Ranges::of).collect();
        block_lens(ops, &ranges)
    }

    /// The wave plan of hand-built `ops`, the instructions `order` names,
    /// all of one level, every level planned.
    fn wave_plan(ops: &[MicroOp], order: &[(u32, u32)]) -> WavePlan {
        let mut stream = Lowering::default();
        let ops = ops.iter().map(|op| (*op, None));
        stream.run(order, 0, ops, Some(&|_| 0));
        stream.plan(order, 0)
    }

    /// Each chunk op lowers only against the half of the arena it may
    /// touch, and only from the VPP that owns its chunk. A read of a
    /// gradient chunk, above all a write to a value chunk — which stays
    /// resident across sweeps — and a chunk op of another VPP are refused,
    /// in release builds too.
    #[test]
    fn chunk_ops_on_the_wrong_half_of_the_arena_are_refused() {
        use vpps_tensor::PoolOffset;
        let mut model = Model::new(3);
        let w = model.add_matrix("W", 12, 12);
        let b = model.add_bias("b", 12);
        let mut device = DeviceConfig::titan_v();
        device.num_sms = 2;
        let plan = KernelPlan::build(&model, &device, 1).expect("tiny model fits");
        let dist = plan.distribution();
        let (w_value, w_grad) = (dist.value_chunks_of(w)[0], dist.grad_chunks_of(w)[0]);
        let (b_value, b_grad) = (dist.value_chunks_of(b)[0], dist.grad_chunks_of(b)[0]);
        // The five chunk ops: two reading `w`, one reading `b`, one writing
        // `w_out`, one writing `b_out`.
        let ops = |w, b, w_out, b_out| {
            let (x, y, len) = (PoolOffset(0), PoolOffset(100), 12);
            [
                Instr::MatVecChunk {
                    chunk: w,
                    len,
                    x,
                    y,
                },
                Instr::TMatVecChunk {
                    chunk: w,
                    len,
                    dy: x,
                    dx: y,
                },
                Instr::AddBiasChunk {
                    chunk: b,
                    len,
                    x,
                    y,
                },
                Instr::OuterChunk {
                    chunk: w_out,
                    len,
                    x,
                    dy: y,
                },
                Instr::BiasGradChunk {
                    chunk: b_out,
                    len,
                    dy: x,
                },
            ]
        };
        // The VPP that owns the op's chunk.
        let owner = |instr: &Instr| match *instr {
            Instr::MatVecChunk { chunk, .. }
            | Instr::TMatVecChunk { chunk, .. }
            | Instr::AddBiasChunk { chunk, .. }
            | Instr::OuterChunk { chunk, .. }
            | Instr::BiasGradChunk { chunk, .. } => dist.chunk(chunk).vpp as u32,
            _ => unreachable!("five chunk ops"),
        };
        let refused = |instr: &Instr, vpp| {
            let refused = std::panic::catch_unwind(|| lower_instr(instr, dist, vpp))
                .expect_err("lowered a chunk op on the wrong half or of another VPP");
            let message = refused
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.starts_with("lowering: "), "{instr:?}: {message}");
        };
        for instr in ops(w_grad, b_grad, w_value, b_value) {
            refused(&instr, owner(&instr));
        }
        for instr in ops(w_value, b_value, w_grad, b_grad) {
            assert!(
                lower_instr(&instr, dist, owner(&instr)).is_some(),
                "{instr:?}"
            );
            refused(&instr, owner(&instr) + 1);
        }
    }

    #[test]
    fn regroup_makes_same_chunk_ops_adjacent_and_moves_patch_points() {
        let (a, b) = (0, 16);
        let copy = MicroOp::Copy {
            src: 3,
            dst: 500,
            len: 8,
        };
        let pick = MicroOp::PickNls {
            x: 500,
            out: 600,
            label: 1,
            len: 8,
        };
        let ops = [
            matvec(a, 100, 200),
            copy,
            matvec(b, 100, 210),
            matvec(a, 110, 220),
            pick,
            matvec(b, 110, 230),
        ];
        let patch = |op_index| PatchPoint {
            vpp: 0,
            ip: op_index,
            op_index,
        };
        let (ops, patch_points) = regroup(&ops, &one_segment(6), &[1, 4]);
        assert_eq!(
            ops,
            vec![
                matvec(a, 100, 200),
                matvec(a, 110, 220),
                copy,
                matvec(b, 100, 210),
                matvec(b, 110, 230),
                pick,
            ]
        );
        // Moved with their ops, `(vpp, ip)` untouched, still ascending.
        assert_eq!(
            patch_points,
            vec![
                PatchPoint {
                    op_index: 2,
                    ..patch(1)
                },
                PatchPoint {
                    op_index: 5,
                    ..patch(4)
                }
            ]
        );
    }

    #[test]
    fn regroup_never_swaps_two_accumulations_into_one_target() {
        let (a, b) = (0, 16);
        // The third op would join the first, past the second — which adds
        // into the same `dx`.
        let same_dx = vec![
            tmatvec(a, 100, 300),
            tmatvec(b, 110, 300),
            tmatvec(a, 120, 300),
        ];
        assert_eq!(regroup(&same_dx, &one_segment(3), &[]).0, same_dx);
        // With its own `dx` it does move.
        let ops = [
            tmatvec(a, 100, 300),
            tmatvec(b, 110, 300),
            tmatvec(a, 120, 310),
        ];
        assert_eq!(
            regroup(&ops, &one_segment(3), &[]).0,
            vec![
                tmatvec(a, 100, 300),
                tmatvec(a, 120, 310),
                tmatvec(b, 110, 300)
            ]
        );

        // Two outer products into one gradient chunk, around a bias-gradient
        // that adds into a span of the same chunk.
        let bias_grad = MicroOp::BiasGrad {
            reg: a + 8,
            dy: 400,
            len: 4,
        };
        let around = vec![outer(a, 100, 200), bias_grad, outer(a, 110, 210)];
        assert_eq!(regroup(&around, &one_segment(3), &[]).0, around);
        // Reads of what an op in between writes pin an op too.
        let chained = vec![
            matvec(a, 100, 200),
            MicroOp::Tanh {
                x: 200,
                y: 110,
                len: 2,
            },
            matvec(a, 104, 220),
        ];
        assert_eq!(regroup(&chained, &one_segment(3), &[]).0, chained);
    }

    /// One key, with an op of none between two of its ops: the later one
    /// moves up to the first, in front of the op between.
    #[test]
    fn regroup_moves_an_op_of_the_only_key_past_an_op_without_one() {
        let copy = MicroOp::Copy {
            src: 3,
            dst: 500,
            len: 8,
        };
        let ops = [matvec(0, 100, 200), copy, matvec(0, 110, 220)];
        assert_eq!(
            regroup(&ops, &one_segment(3), &[]).0,
            [ops[0], ops[2], ops[1]]
        );
    }

    #[test]
    fn regroup_stops_at_sync_points() {
        let (a, b) = (0, 16);
        let stream = vec![
            matvec(a, 100, 200),
            matvec(b, 100, 210),
            // A `Signal`/`Wait` pair sat here (ips 2 and 3)...
            matvec(a, 110, 220),
            matvec(b, 110, 230),
            // ...and here the sweep moved on to another VPP.
            matvec(a, 120, 240),
        ];
        let order = [(0, 0), (0, 1), (0, 4), (0, 5), (1, 6)];
        assert_eq!(regroup(&stream, &order, &[]).0, stream);
    }

    #[test]
    fn a_block_holds_at_most_max_block_ops() {
        let ops: Vec<_> = (0..5).map(|k| matvec(0, 100, 200 + 10 * k)).collect();
        assert_eq!(calls(&ops), [4, 0, 0, 0, 1]);
        let ops: Vec<_> = (0..5).map(|k| outer(0, 100, 200 + 10 * k)).collect();
        assert_eq!(calls(&ops), [4, 0, 0, 0, 1]);
    }

    #[test]
    fn a_mat_vec_that_touches_a_members_output_ends_the_block() {
        let (a, b) = (0, 16);
        // Reads the first member's `y`.
        let reads = [
            matvec(a, 100, 200),
            matvec(a, 110, 210),
            matvec(a, 200, 220),
        ];
        assert_eq!(calls(&reads), [2, 0, 1]);
        // Writes the first member's `y`.
        let writes = [
            matvec(a, 100, 200),
            matvec(a, 110, 210),
            matvec(a, 120, 201),
        ];
        assert_eq!(calls(&writes), [2, 0, 1]);
        // Writes the first member's `x`.
        let clobbers = [
            matvec(a, 100, 200),
            matvec(a, 110, 104),
            matvec(a, 120, 220),
        ];
        assert_eq!(calls(&clobbers), [1, 2, 0]);
        // Another chunk ends it too.
        let other = [
            matvec(a, 100, 200),
            matvec(b, 100, 210),
            matvec(b, 110, 220),
        ];
        assert_eq!(calls(&other), [1, 2, 0]);
    }

    #[test]
    fn same_key_outer_products_block_whatever_their_pool_operands() {
        let ops = [outer(0, 100, 200), outer(0, 200, 100), outer(0, 100, 100)];
        assert_eq!(calls(&ops), [3, 0, 0]);
    }

    #[test]
    fn a_transposed_mat_vec_runs_alone() {
        let ops = [
            tmatvec(0, 100, 300),
            tmatvec(0, 110, 310),
            tmatvec(0, 120, 320),
        ];
        assert_eq!(calls(&ops), [1, 1, 1]);
    }

    /// Blocks are recorded on the final stream, not per segment: two
    /// same-key mat-vecs of different VPPs that end up adjacent share a call.
    #[test]
    fn a_block_spans_a_segment_boundary() {
        let (a, b) = (0, 16);
        let ops = [
            matvec(b, 100, 200),
            matvec(a, 100, 210),
            matvec(a, 110, 220),
        ];
        let (stream, _) = regroup(&ops, &[(0, 0), (0, 1), (1, 0)], &[]);
        assert_eq!(stream, ops);
        assert_eq!(calls(&stream), [1, 2, 0]);
    }

    /// On a real batch: regrouping happens, every segment keeps its ops, no
    /// two conflicting ops change their relative order, and the patch
    /// points — moved — still name patchable ops whose literals the graph
    /// nodes the generator recorded supply.
    #[test]
    fn regrouped_artifact_is_a_conflict_preserving_permutation() {
        // One SM, two matrices: every VPP holds several chunks, so the
        // node-major reference order alternates between them.
        let mut f = fixture_on(1, 2);
        let (g, root) = fan(&f.model, &[1, 4, 7, 2, 5], 3);
        f.pool.reset();
        let gs = generate::generate(&g, root, &f.plan, &mut f.pool, &f.tables).expect("fits");
        let art = lower(&f.plan, &gs, f.gpu.cost_model());
        let dist = f.plan.distribution();
        let order = &art.timeline.order;
        let reference: Vec<MicroOp> = order
            .iter()
            .map(|&(v, ip)| {
                lower_instr(&gs.scripts.script(v as usize)[ip as usize], dist, v).expect("compute")
            })
            .collect();
        assert_ne!(art.ops, reference, "this batch has ops to regroup");
        assert!(art.blocks().any(|block| block.len() > 1));

        for segment in segments(order) {
            let (was, is) = (&reference[segment.clone()], &art.ops[segment]);
            let at = |op: &MicroOp| {
                let mut hits = is.iter().enumerate().filter(|(_, o)| *o == op);
                let (p, _) = hits.next().expect("segments keep their ops");
                assert!(hits.next().is_none(), "ops of this batch are distinct");
                p
            };
            for (i, earlier) in was.iter().enumerate() {
                for later in &was[i + 1..] {
                    if Access::of(earlier).conflicts_with(&Access::of(later)) {
                        assert!(at(earlier) < at(later), "{earlier:?} and {later:?} swapped");
                    }
                }
            }
        }

        assert!(art
            .patch_points
            .windows(2)
            .all(|w| w[0].op_index < w[1].op_index));
        assert!(
            art.patch_points
                .iter()
                .any(|p| { order[p.op_index as usize] != (p.vpp, p.ip) }),
            "this batch has patch points that moved"
        );
        for p in &art.patch_points {
            assert!(matches!(
                art.ops[p.op_index as usize],
                MicroOp::Copy { .. } | MicroOp::PickNls { .. } | MicroOp::PickNlsBwd { .. }
            ));
        }
        assert_eq!(art.patches(&g, &f.tables), art.extract_patches(&gs));
        // Same structure, other rows and labels: still what the scripts say.
        let (other, other_root) = fan(&f.model, &[8, 0, 3, 6, 1], 7);
        f.pool.reset();
        let gs =
            generate::generate(&other, other_root, &f.plan, &mut f.pool, &f.tables).expect("fits");
        assert_eq!(art.patches(&other, &f.tables), art.extract_patches(&gs));
    }

    /// The wave plan of a real training batch: each wave is one level of
    /// the stream, each of its ops is in one of its pieces, none of which
    /// is empty, some wave has two pieces or more, and no op of one piece
    /// conflicts with an op of another — they touch no pool or arena
    /// location one of them writes.
    #[test]
    fn wave_plan_splits_no_conflicting_pair() {
        let mut f = fixture_on(3, 2);
        let (g, root) = fan(&f.model, &[1, 4, 7, 2, 5], 3);
        f.pool.reset();
        let gs = generate::generate(&g, root, &f.plan, &mut f.pool, &f.tables).expect("fits");
        let art = lower_for(&f.plan, &gs, f.gpu.cost_model(), Helpers::Forced);
        let plan = &art.waves;
        assert!(plan.waves.iter().any(|w| !w.tied()));
        let mut level = None;
        for wave in &plan.waves {
            let levels = art.timeline.order[wave.start as usize..wave.end as usize]
                .iter()
                .map(|&(v, ip)| {
                    let script = gs.scripts.script(v as usize);
                    let signal = script[ip as usize..].iter().find(|i| i.is_sync());
                    match signal {
                        Some(Instr::Signal { barrier }) => *barrier,
                        other => panic!("a level ends on {other:?}"),
                    }
                })
                .collect::<std::collections::BTreeSet<u32>>();
            assert_eq!(levels.len(), 1, "a wave is one level");
            assert!(level < levels.first().copied(), "levels ascend");
            level = levels.first().copied();
            let ids = plan.pieces(wave);
            assert!(ids.iter().all(|&p| p < wave.pieces));
            let start = wave.start as usize;
            let piece = |p| {
                (0..ids.len())
                    .filter(|&i| ids[i] == p)
                    .map(|i| start + i)
                    .collect()
            };
            let pieces: Vec<Vec<usize>> = (0..wave.pieces).map(piece).collect();
            assert!(pieces.iter().all(|p| !p.is_empty()), "no piece is empty");
            for (i, a) in pieces.iter().enumerate() {
                for b in &pieces[i + 1..] {
                    for (&a, &b) in a.iter().flat_map(|a| b.iter().map(move |b| (a, b))) {
                        let (x, y) = (Access::of(&art.ops[a]), Access::of(&art.ops[b]));
                        assert!(!x.conflicts_with(&y), "ops {a} and {b} conflict");
                    }
                }
            }
        }
    }

    /// Two VPPs of one level: an op that reads what the other writes, or
    /// accumulates where the other does, ties the two, and the wave stays
    /// one piece, which the sweep runs serially; two mat-vecs of their own
    /// chunks and outputs are two pieces. Two outer products into one
    /// gradient chunk — of one VPP, which lowering checks — are tied too.
    #[test]
    fn conflicting_ops_are_tied_to_one_piece() {
        let two_vpps = [(0, 0), (1, 0)];
        let plan = |ops: &[MicroOp]| wave_plan(ops, &two_vpps);
        let tanh = MicroOp::Tanh {
            x: 200,
            y: 300,
            len: 2,
        };
        for ops in [
            [matvec(0, 100, 200), tanh],
            [tmatvec(0, 100, 300), tmatvec(16, 110, 300)],
        ] {
            let plan = plan(&ops);
            assert_eq!(plan.waves.len(), 1);
            assert!(plan.waves[0].tied(), "{ops:?}");
        }
        let outers = [outer(0, 100, 200), outer(0, 110, 210)];
        assert!(wave_plan(&outers, &one_segment(2)).waves[0].tied());
        let plan = plan(&[matvec(0, 100, 200), matvec(16, 100, 210)]);
        assert_eq!(plan.waves[0].pieces, 2);
        assert_eq!(plan.pieces(&plan.waves[0]), [0, 1]);
    }

    #[test]
    fn graph_hit_reads_patches_from_the_graph() {
        let mut f = fixture();
        let (a, root) = chain(&f.model, 2, 1, 0);
        assert!(!f.dispatch(&a, root), "first dispatch generates");
        // Same structure, other row and label: a hit whose patch vector is
        // what generating the scripts and extracting from them would give.
        let (b, root_b) = chain(&f.model, 2, 7, 3);
        f.pool.reset();
        let base = f.pool.used();
        let art = f
            .cache
            .lookup_graph(&f.plan, &b, root_b, true, base)
            .expect("structurally identical graph hits");
        let gs = generate::generate(&b, root_b, &f.plan, &mut f.pool, &f.tables).expect("fits");
        assert_eq!(art.patches(&b, &f.tables), art.extract_patches(&gs));
        assert_eq!(art.pool_len, f.pool.used() - base);
        assert_eq!(art.encoded_bytes, gs.scripts.encoded_bytes());
        // What `replay_generate_obs` adds to `script.*` for the skipped
        // generation is what generating `b` adds.
        let count = |pick: fn(&Instr) -> bool| {
            let vpps = 0..gs.scripts.num_vpps();
            vpps.flat_map(|v| gs.scripts.script(v))
                .filter(|i| pick(i))
                .count() as u64
        };
        assert_eq!(
            (
                art.forward_instructions + art.backward_instructions,
                art.num_barriers,
                art.signal_instrs,
                art.wait_instrs,
            ),
            (
                gs.forward_instructions + gs.backward_instructions,
                gs.num_barriers,
                count(|i| matches!(i, Instr::Signal { .. })),
                count(|i| matches!(i, Instr::Wait { .. })),
            ),
        );
        assert!(f.dispatch(&b, root_b));
        let stats = f.cache.stats();
        assert_eq!((stats.script_misses, stats.script_hits), (1, 1));
        assert_eq!((stats.graph_hits, f.cache.len()), (1, 1));
    }

    /// Two keys forced into one bucket: the second is a miss on both paths,
    /// re-lowers and takes the slot over — it never runs the first one's
    /// artifact, as a cache keyed on a 64-bit hash of the scripts alone
    /// would have.
    #[test]
    fn forged_equal_hash_with_different_encoding_is_a_miss() {
        let mut f = fixture();
        let (a, root_a) = chain(&f.model, 2, 1, 0);
        let (b, root_b) = chain(&f.model, 3, 1, 0);
        assert!(!f.dispatch(&a, root_a));
        f.pool.reset();
        let base = f.pool.used();
        let gs_b = generate::generate(&b, root_b, &f.plan, &mut f.pool, &f.tables).expect("fits");
        let hash_b = hash_words(&gs_b.key);
        // Forge a 64-bit collision: file a's entry under b's hash.
        let (_, entry) = f.cache.entries.drain().next().expect("a's entry");
        let art_a = Arc::clone(&entry.artifact);
        f.cache.entries.insert(hash_b, entry);
        f.cache.fifo = VecDeque::from([hash_b]);
        assert!(
            f.cache
                .lookup_graph(&f.plan, &b, root_b, true, base)
                .is_none(),
            "equal hash, different encoding: a miss, never a's artifact"
        );
        let art_b = f.cache.get_or_lower(&f.plan, &gs_b, f.gpu.cost_model());
        assert!(!Arc::ptr_eq(&art_a, &art_b), "b never gets a's artifact");
        let stats = f.cache.stats();
        assert_eq!((stats.script_misses, stats.script_hits), (2, 0));
        // b took the slot over: one entry, b's words, no eviction.
        assert_eq!((f.cache.len(), f.cache.fifo.len()), (1, 1));
        assert_eq!(f.cache.entries[&hash_b].key, gs_b.key);
        assert_eq!(stats.script_evictions, 0);
        // And the slot is b's from its graph too.
        let found = f.cache.lookup_graph(&f.plan, &b, root_b, true, base);
        assert!(Arc::ptr_eq(&found.expect("b's entry"), &art_b));
        assert!(!f.dispatch(&a, root_a), "a lost its slot");
    }

    #[test]
    fn invalidate_plan_drops_graph_entries_with_their_scripts() {
        let mut f = fixture();
        let (a, root_a) = chain(&f.model, 2, 1, 0);
        let (b, root_b) = chain(&f.model, 3, 1, 0);
        assert!(!f.dispatch(&a, root_a));
        assert!(!f.dispatch(&b, root_b));
        assert!(f.dispatch(&a, root_a));
        assert_eq!(f.cache.len(), 2);

        let plan_id = f.plan.signature().plan_id();
        assert_eq!(f.cache.invalidate_plan(plan_id), 2);
        assert!(f.cache.is_empty() && f.cache.fifo.is_empty());
        assert!(!f.dispatch(&a, root_a), "a quarantined plan re-generates");
        assert_eq!(f.cache.stats().script_re_misses, 1);
    }

    #[test]
    fn fifo_eviction_drops_the_graph_entry_of_the_evicted_script() {
        let mut f = fixture();
        f.cache = LoweredCache::with_capacity(2);
        let graphs: Vec<_> = (1..=3).map(|steps| chain(&f.model, steps, 1, 0)).collect();
        for (g, root) in &graphs {
            assert!(!f.dispatch(g, *root));
        }
        assert_eq!((f.cache.len(), f.cache.fifo.len()), (2, 2));
        // The first graph's script was the FIFO head: it misses (and
        // re-lowers, evicting the second); the third still hits.
        assert!(f.dispatch(&graphs[2].0, graphs[2].1));
        assert!(!f.dispatch(&graphs[0].0, graphs[0].1));
        assert!(f.dispatch(&graphs[0].0, graphs[0].1));
        assert!(!f.dispatch(&graphs[1].0, graphs[1].1));
        let stats = f.cache.stats();
        assert_eq!(stats.script_re_misses, 2);
        assert_eq!(stats.script_evictions, 3);
    }
}
