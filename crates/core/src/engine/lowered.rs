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
//!   ([`timeline::analyze`], which prices each instruction as it walks) and
//!   the artifact caches the resulting [`TimelineReport`], so re-running an
//!   identical script never recomputes a cost or the schedule. The timeline
//!   and the cost model see the original scripts — regrouping changes no
//!   simulated number.
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dyn_graph::{Graph, NodeId, Op};
use gpu_sim::CostModel;
use vpps_obs::Counter;
use vpps_tensor::Pool;

use crate::distribute::{Chunk, ChunkId, Distribution};
use crate::exec::kernels::{self, MAX_BLOCK};
use crate::exec::regcache::RegCache;
use crate::script::generate::dispatch_key;
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

    /// `[kind, reg, len, rows, cols]` of a matrix-chunk op, `None` for every
    /// other op. Ops with equal keys do the same work against the same
    /// register chunk with different operands: lowering makes them adjacent
    /// (`Lowering::group`) and records runs of them as blocks
    /// ([`block_lens`]), which the sweep runs through one blocked kernel.
    fn chunk_key(&self) -> Option<[u32; 5]> {
        match *self {
            MicroOp::MatVec {
                reg,
                len,
                rows,
                cols,
                ..
            } => Some([0, reg, len, rows, cols]),
            MicroOp::TMatVec {
                reg,
                len,
                rows,
                cols,
                ..
            } => Some([1, reg, len, rows, cols]),
            MicroOp::Outer {
                reg,
                len,
                rows,
                cols,
                ..
            } => Some([2, reg, len, rows, cols]),
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

    /// Adds to the `script.*` obs counters what generating a batch's scripts
    /// would have added, so a snapshot reads the same with and without the
    /// graph-keyed shortcut.
    pub fn replay_generate_obs(&self) {
        if !vpps_obs::enabled() {
            return;
        }
        vpps_obs::counter("script.instructions")
            .add((self.forward_instructions + self.backward_instructions) as u64);
        vpps_obs::counter("script.barriers").add(u64::from(self.num_barriers));
        vpps_obs::counter("script.signal_instrs").add(self.signal_instrs);
        vpps_obs::counter("script.wait_instrs").add(self.wait_instrs);
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
/// writes it and a value chunk when it reads it. The value half of the
/// arena stays resident across sweeps (`RegCache`), so an op that wrote a
/// value chunk would corrupt every later batch: refuse it at lower time.
fn checked_chunk<'d>(dist: &'d Distribution, chunk: ChunkId, op: &str, writes: bool) -> &'d Chunk {
    let c = dist.chunk(chunk);
    let want = if writes { "gradient" } else { "value" };
    assert!(
        c.is_grad == writes,
        "lowering: {op} must use a {want} chunk"
    );
    c
}

fn lower_instr(instr: &Instr, dist: &Distribution) -> Option<MicroOp> {
    Some(match *instr {
        Instr::Signal { .. } | Instr::Wait { .. } => return None,
        Instr::MatVecChunk { chunk, len, x, y } => {
            let c = checked_chunk(dist, chunk, "matvec", false);
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
            let c = checked_chunk(dist, chunk, "t-matvec", false);
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
            let c = checked_chunk(dist, chunk, "outer product", true);
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
            reg: bias_reg(checked_chunk(dist, chunk, "add-bias", false), len),
            x: x.raw(),
            y: y.raw(),
            len,
        },
        Instr::BiasGradChunk { chunk, len, dy } => MicroOp::BiasGrad {
            reg: bias_reg(checked_chunk(dist, chunk, "bias-grad", true), len),
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

/// What one op touches, as `(start, len)` ranges: the pool ranges it reads
/// (the one range twice for an op that reads one) and writes, and the
/// register-arena span it reads — or, flagged `true`, writes; `None` for an
/// op that only touches the pool.
#[derive(Clone, Copy)]
struct Access {
    reads: [(u32, u32); 2],
    write: Option<(u32, u32)>,
    arena: Option<((u32, u32), bool)>,
}

impl Access {
    fn of(op: &MicroOp) -> Self {
        let (reads, write) = match *op {
            MicroOp::MatVec {
                x, y, len, rows, ..
            } => ([(x, len); 2], Some((y, rows))),
            MicroOp::TMatVec {
                dy, dx, len, rows, ..
            } => ([(dy, rows); 2], Some((dx, len))),
            MicroOp::Outer {
                x, dy, len, rows, ..
            } => ([(x, len), (dy, rows)], None),
            MicroOp::BiasGrad { dy, len, .. } => ([(dy, len); 2], None),
            MicroOp::AddBias { x, y, len, .. }
            | MicroOp::Tanh { x, y, len }
            | MicroOp::Sigmoid { x, y, len }
            | MicroOp::Relu { x, y, len }
            | MicroOp::AccSub { x, y, len }
            | MicroOp::AccAdd { x, y, len } => ([(x, len); 2], Some((y, len))),
            MicroOp::TanhBwd { y, dy, dx, len }
            | MicroOp::SigmoidBwd { y, dy, dx, len }
            | MicroOp::ReluBwd { y, dy, dx, len } => ([(y, len), (dy, len)], Some((dx, len))),
            MicroOp::Sub { a, b, y, len }
            | MicroOp::Add { a, b, y, len }
            | MicroOp::CwiseMult { a, b, y, len }
            | MicroOp::MulAcc { a, b, y, len } => ([(a, len), (b, len)], Some((y, len))),
            MicroOp::Copy { src, dst, len } => ([(src, len); 2], Some((dst, len))),
            MicroOp::PickNls { x, out, len, .. } => ([(x, len); 2], Some((out, 1))),
            MicroOp::PickNlsBwd {
                x, dloss, dx, len, ..
            } => ([(x, len), (dloss, 1)], Some((dx, len))),
        };
        let arena = match *op {
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
        };
        Access {
            reads,
            write,
            arena,
        }
    }

    /// `true` when one of the two ops writes a pool range the other reads
    /// or writes.
    fn pool_conflicts_with(&self, other: &Access) -> bool {
        let hits = |w: Option<(u32, u32)>, reader: &Access| {
            w.is_some_and(|w| reader.reads.iter().any(|r| overlaps(*r, w)))
        };
        hits(self.write, other)
            || hits(other.write, self)
            || matches!((self.write, other.write), (Some(a), Some(b)) if overlaps(a, b))
    }

    /// `true` when executing the two ops in either order could give
    /// different results: one writes a pool or arena range the other reads
    /// or writes. Two accumulations into one target conflict too — f32
    /// addition does not commute across roundings.
    fn conflicts_with(&self, other: &Access) -> bool {
        self.pool_conflicts_with(other)
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
            read: bits(8, access.reads[0]) | bits(8, access.reads[1]),
            write: access.write.map_or(0, |w| bits(8, w)),
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

/// While a segment is grouped: a chunk key's latest group, and the
/// [`Blocks`] of every op placed in a later group so far — what an op
/// joining that group would end up in front of.
type Home = (u32, Blocks);

/// The stream the lowering pass emits, plus the segment in hand — one VPP's
/// run of compute ops with no `Signal`/`Wait` between them, the last
/// `touched.len()` of `ops` — and the buffers grouping it needs, reused from
/// segment to segment.
#[derive(Default)]
struct Lowering {
    ops: Vec<MicroOp>,
    patch_points: Vec<PatchPoint>,
    /// The source of each patch point's literal.
    sources: Vec<Literal>,
    /// One past the highest pool index an op touches.
    pool_end: usize,
    /// Largest scratch buffer an op needs.
    scratch_len: usize,
    /// Per op of the segment: its index into `keys` (`None`: no chunk key)
    /// and what it touches.
    touched: Vec<(Option<usize>, Blocks)>,
    /// The segment's distinct chunk keys, each with its [`Home`] once it has
    /// one.
    keys: Vec<([u32; 5], Option<Home>)>,
    /// The segment's ops in their original order, while grouping.
    moved: Vec<MicroOp>,
    /// Per op: its group, then its index in the grouped order.
    slot: Vec<u32>,
    /// Per group: its size, then its offset in the grouped order.
    sizes: Vec<u32>,
}

impl Lowering {
    /// The one pass over [`TimelineReport::order`] that lowering makes:
    /// `ops` yields, for each `(vpp, ip)` of `order`, its micro-op and the
    /// source of its per-request literal if it carries one (`literals` of
    /// them do). Each op's ranges are computed once, for the overlap proof,
    /// the bounds and the grouping summary (only the exact check behind a
    /// summary that may conflict derives two ops' ranges again). Each
    /// segment — a run `(v, ip), (v, ip + 1), …` of `order`, the part of
    /// the stream the barrier protocol lets nothing else observe half-done,
    /// so only orderings inside it are free — is put in its final order as
    /// soon as it ends.
    fn run(
        order: &[(u32, u32)],
        literals: usize,
        ops: impl Iterator<Item = (MicroOp, Option<Literal>)>,
    ) -> Self {
        let mut out = Lowering::default();
        out.ops.reserve(order.len());
        out.patch_points.reserve(literals);
        out.sources.reserve(literals);
        let mut next = None;
        for (&(vpp, ip), (op, literal)) in order.iter().zip(ops) {
            if next != Some((vpp, ip)) {
                out.end_segment();
            }
            next = Some((vpp, ip + 1));
            let access = Access::of(&op);
            for r in access.reads.iter().chain(&access.write) {
                out.pool_end = out.pool_end.max(r.0 as usize + r.1 as usize);
            }
            let disjoint = |w| access.reads.iter().all(|r| !overlaps(*r, w));
            assert!(
                access.write.is_none_or(disjoint),
                "lowering: op {op:?} writes a pool range overlapping its input"
            );
            if let MicroOp::TMatVec { len, .. } | MicroOp::PickNlsBwd { len, .. } = op {
                out.scratch_len = out.scratch_len.max(len as usize);
            }
            if let Some(source) = literal {
                let op_index = out.ops.len() as u32;
                out.patch_points.push(PatchPoint { vpp, ip, op_index });
                out.sources.push(source);
            }
            let key = op.chunk_key().map(|key| {
                let keys = &mut out.keys;
                keys.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
                    keys.push((key, None));
                    keys.len() - 1
                })
            });
            out.touched.push((key, Blocks::of(&access)));
            out.ops.push(op);
        }
        out.end_segment();
        out
    }

    /// Puts the segment in its final order and starts the next one. A
    /// segment stays as it is unless some chunk key occurs in it twice (else
    /// no op can move); then it is grouped by chunk key, and its patch
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
    fn end_segment(&mut self) {
        if self.touched.iter().filter(|(key, _)| key.is_some()).count() > self.keys.len() {
            self.group();
        }
        self.touched.clear();
        self.keys.clear();
    }

    fn group(&mut self) {
        let base = self.ops.len() - self.touched.len();
        let ops = &mut self.ops[base..];
        self.moved.clear();
        self.moved.extend_from_slice(ops);
        self.slot.clear();
        self.sizes.clear();
        for (j, (key, summary)) in self.touched.iter().enumerate() {
            let joins = |home: u32, behind: &Blocks| {
                !summary.may_conflict(behind)
                    || (0..j).all(|i| {
                        self.slot[i] <= home
                            || !self.touched[i].1.may_conflict(summary)
                            || !Access::of(&self.moved[i])
                                .conflicts_with(&Access::of(&self.moved[j]))
                    })
            };
            let group = match key.map(|k| &mut self.keys[k].1) {
                Some(Some((home, behind))) if joins(*home, behind) => *home,
                home => {
                    let group = self.sizes.len() as u32;
                    self.sizes.push(0);
                    if let Some(home) = home {
                        *home = Some((group, Blocks::default()));
                    }
                    group
                }
            };
            for (_, home) in &mut self.keys {
                if let Some((_, behind)) = home.as_mut().filter(|(home, _)| *home < group) {
                    behind.read |= summary.read;
                    behind.write |= summary.write;
                }
            }
            self.sizes[group as usize] += 1;
            self.slot.push(group);
        }
        // Stable counting sort by group: sizes to offsets, then scatter in
        // the original order.
        let mut offset = 0;
        for size in &mut self.sizes {
            offset += std::mem::replace(size, offset);
        }
        for (op, slot) in self.moved.iter().zip(&mut self.slot) {
            let at = &mut self.sizes[*slot as usize];
            (ops[*at as usize], *slot) = (*op, *at);
            *at += 1;
        }
        let tail = self.patch_points.iter_mut().rev();
        for patch in tail.take_while(|p| p.op_index as usize >= base) {
            patch.op_index = (base + self.slot[patch.op_index as usize - base] as usize) as u32;
        }
    }
}

/// The kernel calls of the final stream `ops`: per op, how many ops one call
/// starting there runs, `0` inside a block. One walk goes front to back over
/// the whole stream, across segment boundaries, and at each op takes the
/// longest block it can: up to [`MAX_BLOCK`] `MatVec`s, or `Outer`s, with
/// the head's [`MicroOp::chunk_key`], no member writing a pool range another
/// member reads or writes. The blocked kernels interleave the members' rows,
/// take every output at once and give each element the members' operations
/// in order, so a block computes what its ops do one by one. `Outer`s write
/// no pool memory, so equal keys are all they need; a `TMatVec`, like every
/// op without a key, runs alone.
fn block_lens(ops: &[MicroOp]) -> Vec<u8> {
    let mut lens = vec![0; ops.len()];
    let mut i = 0;
    while i < ops.len() {
        let blocks = matches!(ops[i], MicroOp::MatVec { .. } | MicroOp::Outer { .. });
        let joins = |&j: &usize| {
            let apart = |m: &MicroOp| !Access::of(m).pool_conflicts_with(&Access::of(&ops[j]));
            ops[j].chunk_key() == ops[i].chunk_key() && ops[i..j].iter().all(apart)
        };
        let end = ops.len().min(i + if blocks { MAX_BLOCK } else { 1 });
        let n = 1 + (i + 1..end).take_while(joins).count();
        lens[i] = n as u8;
        i += n;
    }
    lens
}

/// Lowers `gs` from scratch, under span `engine.lower`: the schedule (span
/// `lower.analyze`), then one pass over its order (span `lower.order`), in
/// which the instructions [`GeneratedScript::literals`] names become the
/// patch points, and one over the stream it emits, which records the kernel
/// calls ([`LoweredScript::blocks`]). Cached callers should go through
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
    let _span = vpps_obs::span("engine.lower");
    let dist = plan.distribution();
    let tl = {
        let _span = vpps_obs::span("lower.analyze");
        timeline::analyze(plan, gs, cost, None)
    };
    let _span = vpps_obs::span("lower.order");
    // Per-request literals, which the key leaves out, become patch points:
    // each VPP's cursor into `gs.literals` (sorted by `(vpp, ip)`) meets its
    // literals in the order the schedule runs that VPP's instructions.
    let literals = &gs.literals;
    let mut cursors: Vec<usize> = (0..gs.scripts.num_vpps() as u32)
        .map(|v| literals.partition_point(|&(lv, _, _)| lv < v))
        .collect();
    let stream = Lowering::run(
        &tl.order,
        literals.len(),
        tl.order.iter().map(|&(v, ip)| {
            let instr = &gs.scripts.script(v as usize)[ip as usize];
            let op = lower_instr(instr, dist).expect("timeline order names a sync instruction");
            let cursor = &mut cursors[v as usize];
            let literal = literals
                .get(*cursor)
                .filter(|&&(lv, lip, _)| (lv, lip) == (v, ip))
                .map(|&(_, _, source)| {
                    *cursor += 1;
                    source
                });
            (op, literal)
        }),
    );
    assert_eq!(
        stream.patch_points.len(),
        literals.len(),
        "lowering: a recorded literal names no compute instruction"
    );

    let (signal_instrs, wait_instrs) = gs.scripts.sync_instructions();
    LoweredScript {
        plan_id: plan.signature().plan_id(),
        num_barriers: gs.num_barriers,
        timeline: Arc::new(tl),
        // Patched copy sources can land on any resident row, so the
        // executor's single bounds check must cover the whole resident
        // region, not just the rows this particular script happened to read.
        pool_end: stream.pool_end.max(gs.persistent_floor as usize),
        scratch_len: stream.scratch_len,
        patch_points: stream.patch_points,
        layout: Arc::clone(&gs.layout),
        forward_instructions: gs.forward_instructions,
        backward_instructions: gs.backward_instructions,
        encoded_bytes: gs.scripts.encoded_bytes(),
        pool_len: gs.pool_len,
        signal_instrs,
        wait_instrs,
        sources: stream.sources,
        block_len: block_lens(&stream.ops),
        ops: stream.ops,
    }
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

/// The `rows × cols` chunk at literal arena offset `reg`.
#[inline]
fn chunk_rows(arena: &mut [f32], reg: u32, rows: u32, cols: u32) -> &mut [f32] {
    let start = reg as usize;
    &mut arena[start..start + rows as usize * cols as usize]
}

/// Executes a lowered artifact serially against `pool` and `cache`,
/// applying `patches` — the per-request literal values from
/// [`LoweredScript::extract_patches`], parallel to
/// [`LoweredScript::patch_points`] — as it sweeps.
///
/// The sweep is branch-light: one match per op, zero allocations (the
/// scratch buffer lives with the arena and is reused across ops and runs),
/// no sync arms, chunk operands sliced straight out of the register arena at
/// the op's literal offset. It is *weight-stationary* where lowering made it
/// possible: each block lowering recorded ([`block_lens`]) — adjacent
/// `MatVec`s (or `Outer`s) of one chunk, up to [`MAX_BLOCK`] — goes through
/// one register-blocked kernel call, so each chunk row is loaded once for
/// all of them; the sweep reads each call's length and forms no block. The
/// blocked [`kernels`] give every output element the per-row kernels'
/// operations in their order, so results are bit-identical to
/// [`super::EventInterp`] replaying the reference serial order. Patch points
/// are ascending in op index, so patching costs one cursor compare per op.
///
/// `TIMED` adds host time per op class ([`OpClock`]) and returns it; the
/// untimed instantiation reads no clock and returns `None`.
///
/// # Panics
///
/// Panics if the artifact references pool memory beyond `pool`'s capacity,
/// if a chunk operand lies outside `cache`'s arena (an arena laid out for
/// another plan), or if `patches` does not match the artifact's patch points.
pub(crate) fn execute<const TIMED: bool>(
    art: &LoweredScript,
    patches: &[u32],
    pool: &mut Pool,
    cache: &mut RegCache,
) -> Option<OpNs> {
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
    let base = raw.as_mut_ptr();
    let (arena, scratch) = cache.arena_and_scratch(art.scratch_len);
    let mut next_patch = 0usize;
    let mut clock = TIMED.then(|| OpClock::start(art.ops.first().map_or(0, MicroOp::class)));
    // SAFETY: `base` comes from a unique `&mut` borrow of the pool held for
    // the whole loop, and execution is single-threaded. The rest are facts
    // lowering established once: every op's written range is disjoint from
    // its read ranges, and every recorded block's members write pool ranges
    // no other member reads or writes (`block_lens`), so each iteration's
    // shared/mutable views never alias. Patching preserves both bounds and
    // disjointness: a patched copy source stays below the persistent floor
    // (covered by `pool_end`, and every write lands above the floor), a
    // patched label changes no pool range, and no patch point lies inside a
    // block. Register chunks live in `cache`'s arena, a separate allocation
    // reached only through bounds-checked slicing, and can never alias the
    // pool.
    unsafe {
        let mut i = 0;
        while i < art.ops.len() {
            let mut op = art.ops[i];
            // Ops this iteration executes: more than one for a block.
            let taken = usize::from(art.block_len[i]);
            if let Some(clock) = &mut clock {
                clock.enter(op.class());
            }
            if next_patch < art.patch_points.len()
                && art.patch_points[next_patch].op_index as usize == i
            {
                let value = patches[next_patch];
                next_patch += 1;
                match &mut op {
                    MicroOp::Copy { src, .. } => *src = value,
                    MicroOp::PickNls { label, .. } | MicroOp::PickNlsBwd { label, .. } => {
                        *label = value
                    }
                    other => panic!("patch point targets unpatchable op {other:?}"),
                }
            }
            match op {
                MicroOp::MatVec {
                    reg, rows, cols, ..
                } => {
                    let mut xs: [&[f32]; MAX_BLOCK] = [&[]; MAX_BLOCK];
                    let mut ys: [&mut [f32]; MAX_BLOCK] = [(); MAX_BLOCK].map(|()| &mut [][..]);
                    for (j, member) in art.ops[i..i + taken].iter().enumerate() {
                        if let MicroOp::MatVec { x, y, len, .. } = *member {
                            xs[j] = view(base, x, len);
                            ys[j] = view_mut(base, y, rows);
                        }
                    }
                    kernels::matvec_block(
                        chunk_rows(arena, reg, rows, cols),
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
                        chunk_rows(arena, reg, rows, cols),
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
                    for (j, member) in art.ops[i..i + taken].iter().enumerate() {
                        if let MicroOp::Outer { x, dy, len, .. } = *member {
                            xs[j] = view(base, x, len);
                            dys[j] = view(base, dy, rows);
                        }
                    }
                    kernels::outer_block(
                        chunk_rows(arena, reg, rows, cols),
                        cols as usize,
                        &xs[..taken],
                        &dys[..taken],
                    );
                }
                MicroOp::AddBias { reg, x, y, len } => {
                    let xv = view(base, x, len);
                    let out = view_mut(base, y, len);
                    out.copy_from_slice(xv);
                    for (o, b) in out.iter_mut().zip(chunk_rows(arena, reg, 1, len).iter()) {
                        *o += b;
                    }
                }
                MicroOp::BiasGrad { reg, dy, len } => {
                    kernels::add_assign(chunk_rows(arena, reg, 1, len), view(base, dy, len));
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
                    let xv = view(base, x, len);
                    let dl = view(base, dloss, 1)[0];
                    let contrib = &mut scratch[..len as usize];
                    contrib.fill(0.0);
                    vpps_tensor::softmax::pick_neg_log_softmax_backward(
                        xv,
                        label as usize,
                        dl,
                        contrib,
                    );
                    kernels::add_assign(view_mut(base, dx, len), contrib);
                }
            }
            i += taken;
        }
    }
    assert_eq!(
        next_patch,
        patches.len(),
        "a patch point names a chunk op inside a block"
    );
    clock.map(OpClock::stop)
}

/// Host nanoseconds per op class ([`MicroOp::class`]).
pub(crate) type OpNs = [u64; MicroOp::MNEMONICS.len()];

/// The clock of a timed sweep. It reads a tick counter only where the op
/// class changes and charges the interval to the class that ran, so a run
/// of same-class ops (a mat-vec block, a chain of element-wise ops) costs
/// one read and the classes' ticks tile the sweep; [`OpClock::stop`] scales
/// them to the sweep's `Instant` duration.
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
    stats: LoweredCacheStats,
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
        vpps_obs::counter("lower.script.cache_hit").incr();
        vpps_obs::counter("lower.graph.cache_hit").incr();
    }

    /// Returns the artifact cached under `gs.key`, lowering `gs` on a miss
    /// (and evicting the oldest entry when the cache is full).
    pub fn get_or_lower(
        &mut self,
        plan: &KernelPlan,
        gs: &GeneratedScript,
        cost: &CostModel,
    ) -> Arc<LoweredScript> {
        let hash = hash_words(&gs.key);
        if let Some(artifact) = self.entry(hash, &gs.key).map(|e| Arc::clone(&e.artifact)) {
            self.stats.script_hits += 1;
            vpps_obs::counter("lower.script.cache_hit").incr();
            return artifact;
        }
        self.stats.script_misses += 1;
        vpps_obs::counter("lower.script.cache_miss").incr();
        if !self.seen.insert(hash) {
            self.stats.script_re_misses += 1;
            vpps_obs::counter("lower.script.cache_re_miss").incr();
        }
        let t0 = vpps_obs::enabled().then(Instant::now);
        let artifact = Arc::new(lower(plan, gs, cost));
        if let Some(t0) = t0 {
            static OPS: [OnceLock<Counter>; OPCODES] = [const { OnceLock::new() }; OPCODES];
            vpps_obs::counter("lower.ns").add(t0.elapsed().as_nanos() as u64);
            artifact.timeline.count_mix("lower.ops", &OPS);
            let blocked = artifact.block_len.iter().filter(|&&n| n > 1);
            vpps_obs::counter("lower.blocked_ops").add(blocked.map(|&n| u64::from(n)).sum());
        }
        if self.entries.len() == self.capacity && !self.entries.contains_key(&hash) {
            if let Some(oldest) = self.fifo.pop_front() {
                self.entries.remove(&oldest);
                self.stats.script_evictions += 1;
                vpps_obs::counter("lower.script.cache_evict").incr();
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
            vpps_obs::counter("lower.script.cache_evict").add(evicted as u64);
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
/// session: [`execute`]. With obs on, it is counted per kernel tier and runs
/// timed, adding its op-class times to `engine.op_ns.<mnemonic>`.
pub(crate) fn sweep(art: &LoweredScript, patches: &[u32], pool: &mut Pool, cache: &mut RegCache) {
    if !vpps_obs::enabled() {
        execute::<false>(art, patches, pool, cache);
        return;
    }
    // Each name is formatted and resolved once, on its first use, so the
    // set of registered names is what it would be without the caching.
    static KERNELS: OnceLock<Counter> = OnceLock::new();
    static OP_NS: [OnceLock<Counter>; MicroOp::MNEMONICS.len()] =
        [const { OnceLock::new() }; MicroOp::MNEMONICS.len()];
    KERNELS
        .get_or_init(|| vpps_obs::counter(&format!("engine.kernels.{}", kernels::tier())))
        .incr();
    let op_ns = execute::<true>(art, patches, pool, cache).expect("a timed sweep times");
    for ((mnemonic, counter), ns) in MicroOp::MNEMONICS.iter().zip(&OP_NS).zip(op_ns) {
        if ns > 0 {
            counter
                .get_or_init(|| vpps_obs::counter(&format!("engine.op_ns.{mnemonic}")))
                .add(ns);
        }
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
        let stream = Lowering::run(
            order,
            patchable.len(),
            ops.iter().enumerate().map(|(j, op)| (*op, literal(j))),
        );
        (stream.ops, stream.patch_points)
    }

    /// Each chunk op lowers only against the half of the arena it may
    /// touch. A read of a gradient chunk, and above all a write to a value
    /// chunk — which stays resident across sweeps — is refused, in release
    /// builds too.
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
        for instr in ops(w_grad, b_grad, w_value, b_value) {
            let refused = std::panic::catch_unwind(|| lower_instr(&instr, dist))
                .expect_err("lowered a chunk op on the wrong half");
            let message = refused
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.starts_with("lowering: "), "{instr:?}: {message}");
        }
        for instr in ops(w_value, b_value, w_grad, b_grad) {
            assert!(lower_instr(&instr, dist).is_some(), "{instr:?}");
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
        assert_eq!(block_lens(&ops), [4, 0, 0, 0, 1]);
        let ops: Vec<_> = (0..5).map(|k| outer(0, 100, 200 + 10 * k)).collect();
        assert_eq!(block_lens(&ops), [4, 0, 0, 0, 1]);
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
        assert_eq!(block_lens(&reads), [2, 0, 1]);
        // Writes the first member's `y`.
        let writes = [
            matvec(a, 100, 200),
            matvec(a, 110, 210),
            matvec(a, 120, 201),
        ];
        assert_eq!(block_lens(&writes), [2, 0, 1]);
        // Writes the first member's `x`.
        let clobbers = [
            matvec(a, 100, 200),
            matvec(a, 110, 104),
            matvec(a, 120, 220),
        ];
        assert_eq!(block_lens(&clobbers), [1, 2, 0]);
        // Another chunk ends it too.
        let other = [
            matvec(a, 100, 200),
            matvec(b, 100, 210),
            matvec(b, 110, 220),
        ];
        assert_eq!(block_lens(&other), [1, 2, 0]);
    }

    #[test]
    fn same_key_outer_products_block_whatever_their_pool_operands() {
        let ops = [outer(0, 100, 200), outer(0, 200, 100), outer(0, 100, 100)];
        assert_eq!(block_lens(&ops), [3, 0, 0]);
    }

    #[test]
    fn a_transposed_mat_vec_runs_alone() {
        let ops = [
            tmatvec(0, 100, 300),
            tmatvec(0, 110, 310),
            tmatvec(0, 120, 320),
        ];
        assert_eq!(block_lens(&ops), [1, 1, 1]);
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
        assert_eq!(block_lens(&stream), [1, 2, 0]);
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
                lower_instr(&gs.scripts.script(v as usize)[ip as usize], dist).expect("compute")
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
