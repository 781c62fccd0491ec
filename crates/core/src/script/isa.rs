//! The CISC-like virtual vector-processor instruction set.
//!
//! Paper §III-B1: every instruction starts with a 4-byte preamble encoding
//! the operation type and the input tensor length; the remaining bytes are
//! 4-byte operand words — mostly offsets into the globally shared tensor
//! memory pool — for a total of at most 20 bytes per instruction. `signal`
//! and `wait` enforce producer/consumer ordering between virtual processors.
//!
//! Matrix operations reference register-cached chunks by [`ChunkId`]; the
//! chunk table is baked into the specialized kernel plan at "compile" time,
//! which is exactly the literal-register-index specialization the paper's JIT
//! step exists to enable.

use vpps_tensor::PoolOffset;

use crate::distribute::ChunkId;

/// Maximum tensor length encodable in the instruction preamble (24 bits).
pub const MAX_TENSOR_LEN: u32 = (1 << 24) - 1;

/// One virtual-processor instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Arrive at barrier `barrier` (global atomicAdd + threadfence).
    Signal {
        /// Barrier index.
        barrier: u32,
    },
    /// Block until `needed` signals have arrived at `barrier`.
    Wait {
        /// Barrier index.
        barrier: u32,
        /// Number of signals that satisfy the barrier.
        needed: u32,
    },
    /// `y[rows of chunk] = W_chunk · x` using register-cached values.
    MatVecChunk {
        /// The cached value chunk.
        chunk: ChunkId,
        /// Input vector length (matrix column count).
        len: u32,
        /// Input vector offset.
        x: PoolOffset,
        /// Output vector *base* offset; the chunk writes rows
        /// `row_start .. row_start + rows` within it.
        y: PoolOffset,
    },
    /// `dx += W_chunkᵀ · dy[rows of chunk]` — remote accumulation into the
    /// consumer's gradient vector (atomic stores on real hardware).
    TMatVecChunk {
        /// The cached value chunk.
        chunk: ChunkId,
        /// `dx` length (matrix column count).
        len: u32,
        /// Upstream derivative *base* offset (rows of the chunk are read).
        dy: PoolOffset,
        /// Accumulated input-derivative offset.
        dx: PoolOffset,
    },
    /// `G_chunk += dy[rows of chunk] ⊗ x` into a register-cached gradient
    /// chunk.
    OuterChunk {
        /// The cached gradient chunk.
        chunk: ChunkId,
        /// `x` length (matrix column count).
        len: u32,
        /// Forward-input vector offset.
        x: PoolOffset,
        /// Upstream derivative base offset.
        dy: PoolOffset,
    },
    /// `y = x + b_chunk` for a register-cached bias row.
    AddBiasChunk {
        /// The cached bias value chunk (single row).
        chunk: ChunkId,
        /// Vector length.
        len: u32,
        /// Input vector offset.
        x: PoolOffset,
        /// Output vector offset.
        y: PoolOffset,
    },
    /// `db_chunk += dy` for a register-cached bias gradient row.
    BiasGradChunk {
        /// The cached bias gradient chunk (single row).
        chunk: ChunkId,
        /// Vector length.
        len: u32,
        /// Upstream derivative offset.
        dy: PoolOffset,
    },
    /// `y = tanh(x)`.
    Tanh {
        /// Vector length.
        len: u32,
        /// Input offset.
        x: PoolOffset,
        /// Output offset.
        y: PoolOffset,
    },
    /// `y = σ(x)`.
    Sigmoid {
        /// Vector length.
        len: u32,
        /// Input offset.
        x: PoolOffset,
        /// Output offset.
        y: PoolOffset,
    },
    /// `y = max(0, x)`.
    Relu {
        /// Vector length.
        len: u32,
        /// Input offset.
        x: PoolOffset,
        /// Output offset.
        y: PoolOffset,
    },
    /// `dx += dy ⊙ (1 - y²)`.
    TanhBwd {
        /// Vector length.
        len: u32,
        /// Forward output offset.
        y: PoolOffset,
        /// Upstream derivative offset.
        dy: PoolOffset,
        /// Accumulated input-derivative offset.
        dx: PoolOffset,
    },
    /// `dx += dy ⊙ y ⊙ (1 - y)`.
    SigmoidBwd {
        /// Vector length.
        len: u32,
        /// Forward output offset.
        y: PoolOffset,
        /// Upstream derivative offset.
        dy: PoolOffset,
        /// Accumulated input-derivative offset.
        dx: PoolOffset,
    },
    /// `dx += dy ⊙ [y > 0]`.
    ReluBwd {
        /// Vector length.
        len: u32,
        /// Forward output offset.
        y: PoolOffset,
        /// Upstream derivative offset.
        dy: PoolOffset,
        /// Accumulated input-derivative offset.
        dx: PoolOffset,
    },
    /// `y = a - b`.
    Sub {
        /// Vector length.
        len: u32,
        /// First operand offset.
        a: PoolOffset,
        /// Second operand offset.
        b: PoolOffset,
        /// Output offset.
        y: PoolOffset,
    },
    /// `y -= x` (accumulating subtract; backward of the subtrahend).
    AccSub {
        /// Vector length.
        len: u32,
        /// Source offset.
        x: PoolOffset,
        /// Accumulated destination offset.
        y: PoolOffset,
    },
    /// `y = a + b`.
    Add {
        /// Vector length.
        len: u32,
        /// First operand offset.
        a: PoolOffset,
        /// Second operand offset.
        b: PoolOffset,
        /// Output offset.
        y: PoolOffset,
    },
    /// `y += x` (accumulating add; backward fan-in and n-ary sums).
    AccAdd {
        /// Vector length.
        len: u32,
        /// Source offset.
        x: PoolOffset,
        /// Accumulated destination offset.
        y: PoolOffset,
    },
    /// `y += a ⊙ b` (backward of element-wise product).
    MulAcc {
        /// Vector length.
        len: u32,
        /// First operand offset.
        a: PoolOffset,
        /// Second operand offset.
        b: PoolOffset,
        /// Accumulated destination offset.
        y: PoolOffset,
    },
    /// `y = a ⊙ b`.
    CwiseMult {
        /// Vector length.
        len: u32,
        /// First operand offset.
        a: PoolOffset,
        /// Second operand offset.
        b: PoolOffset,
        /// Output offset.
        y: PoolOffset,
    },
    /// `dst = src` (concatenation pieces, embedding-row fetches, staging
    /// copies for the GEMM gradient fallback).
    Copy {
        /// Vector length.
        len: u32,
        /// Source offset.
        src: PoolOffset,
        /// Destination offset.
        dst: PoolOffset,
    },
    /// `out[0] = -log softmax(x)[label]`.
    PickNls {
        /// Logit vector length.
        len: u32,
        /// Logits offset.
        x: PoolOffset,
        /// Scalar output offset.
        out: PoolOffset,
        /// Gold label.
        label: u32,
    },
    /// `dx += dloss[0] ⊙ (softmax(x) - e_label)`.
    PickNlsBwd {
        /// Logit vector length.
        len: u32,
        /// Logits offset.
        x: PoolOffset,
        /// Scalar upstream derivative offset.
        dloss: PoolOffset,
        /// Accumulated logits-derivative offset.
        dx: PoolOffset,
        /// Gold label.
        label: u32,
    },
}

/// Mnemonic of every opcode, indexed by [`Instr::opcode`].
pub(crate) const MNEMONICS: [&str; 22] = [
    "signal",
    "wait",
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
    "add",
    "acc_add",
    "mul_acc",
    "cwise_mult",
    "copy",
    "pick_nls",
    "pick_nls_bwd",
    "sub",
    "acc_sub",
];

/// Opcodes of the two barrier instructions; every opcode above them computes.
const SIGNAL: usize = 0;
const WAIT: usize = 1;

/// Entries of a table indexed by opcode.
pub(crate) const OPCODES: usize = MNEMONICS.len();

impl Instr {
    /// The instruction's opcode: its index into [`MNEMONICS`].
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            Instr::Signal { .. } => 0,
            Instr::Wait { .. } => 1,
            Instr::MatVecChunk { .. } => 2,
            Instr::TMatVecChunk { .. } => 3,
            Instr::OuterChunk { .. } => 4,
            Instr::AddBiasChunk { .. } => 5,
            Instr::BiasGradChunk { .. } => 6,
            Instr::Tanh { .. } => 7,
            Instr::Sigmoid { .. } => 8,
            Instr::Relu { .. } => 9,
            Instr::TanhBwd { .. } => 10,
            Instr::SigmoidBwd { .. } => 11,
            Instr::ReluBwd { .. } => 12,
            Instr::Add { .. } => 13,
            Instr::AccAdd { .. } => 14,
            Instr::MulAcc { .. } => 15,
            Instr::CwiseMult { .. } => 16,
            Instr::Copy { .. } => 17,
            Instr::PickNls { .. } => 18,
            Instr::PickNlsBwd { .. } => 19,
            Instr::Sub { .. } => 20,
            Instr::AccSub { .. } => 21,
        }
    }

    /// The tensor length the preamble encodes (`0` for the barriers).
    pub(crate) fn len_field(&self) -> u32 {
        match self {
            Instr::Signal { .. } | Instr::Wait { .. } => 0,
            Instr::MatVecChunk { len, .. }
            | Instr::TMatVecChunk { len, .. }
            | Instr::OuterChunk { len, .. }
            | Instr::AddBiasChunk { len, .. }
            | Instr::BiasGradChunk { len, .. }
            | Instr::Tanh { len, .. }
            | Instr::Sigmoid { len, .. }
            | Instr::Relu { len, .. }
            | Instr::TanhBwd { len, .. }
            | Instr::SigmoidBwd { len, .. }
            | Instr::ReluBwd { len, .. }
            | Instr::Add { len, .. }
            | Instr::Sub { len, .. }
            | Instr::AccAdd { len, .. }
            | Instr::AccSub { len, .. }
            | Instr::MulAcc { len, .. }
            | Instr::CwiseMult { len, .. }
            | Instr::Copy { len, .. }
            | Instr::PickNls { len, .. }
            | Instr::PickNlsBwd { len, .. } => *len,
        }
    }

    fn operands(&self) -> ([u32; 4], usize) {
        match *self {
            Instr::Signal { barrier } => ([barrier, 0, 0, 0], 1),
            Instr::Wait { barrier, needed } => ([barrier, needed, 0, 0], 2),
            Instr::MatVecChunk { chunk, x, y, .. } => ([chunk.0, x.raw(), y.raw(), 0], 3),
            Instr::TMatVecChunk { chunk, dy, dx, .. } => ([chunk.0, dy.raw(), dx.raw(), 0], 3),
            Instr::OuterChunk { chunk, x, dy, .. } => ([chunk.0, x.raw(), dy.raw(), 0], 3),
            Instr::AddBiasChunk { chunk, x, y, .. } => ([chunk.0, x.raw(), y.raw(), 0], 3),
            Instr::BiasGradChunk { chunk, dy, .. } => ([chunk.0, dy.raw(), 0, 0], 2),
            Instr::Tanh { x, y, .. } | Instr::Sigmoid { x, y, .. } | Instr::Relu { x, y, .. } => {
                ([x.raw(), y.raw(), 0, 0], 2)
            }
            Instr::TanhBwd { y, dy, dx, .. }
            | Instr::SigmoidBwd { y, dy, dx, .. }
            | Instr::ReluBwd { y, dy, dx, .. } => ([y.raw(), dy.raw(), dx.raw(), 0], 3),
            Instr::Add { a, b, y, .. } => ([a.raw(), b.raw(), y.raw(), 0], 3),
            Instr::Sub { a, b, y, .. } => ([a.raw(), b.raw(), y.raw(), 0], 3),
            Instr::AccAdd { x, y, .. } => ([x.raw(), y.raw(), 0, 0], 2),
            Instr::AccSub { x, y, .. } => ([x.raw(), y.raw(), 0, 0], 2),
            Instr::MulAcc { a, b, y, .. } => ([a.raw(), b.raw(), y.raw(), 0], 3),
            Instr::CwiseMult { a, b, y, .. } => ([a.raw(), b.raw(), y.raw(), 0], 3),
            Instr::Copy { src, dst, .. } => ([src.raw(), dst.raw(), 0, 0], 2),
            Instr::PickNls { x, out, label, .. } => ([x.raw(), out.raw(), label, 0], 3),
            Instr::PickNlsBwd {
                x,
                dloss,
                dx,
                label,
                ..
            } => ([x.raw(), dloss.raw(), dx.raw(), label], 4),
        }
    }

    /// Short mnemonic for traces and diagnostics.
    pub fn mnemonic(&self) -> &'static str {
        MNEMONICS[usize::from(self.opcode())]
    }

    /// Encoded size in bytes: 4-byte preamble plus 4 bytes per operand.
    /// Never exceeds 20, matching the paper's instruction format.
    pub fn encoded_len(&self) -> usize {
        4 + 4 * self.operands().1
    }

    /// `true` for the barrier instructions.
    pub fn is_sync(&self) -> bool {
        matches!(self, Instr::Signal { .. } | Instr::Wait { .. })
    }

    /// Appends the encoding to `out`.
    ///
    /// No simulated path calls this: [`Instr::encoded_len`] prices the copy.
    /// It is kept as the reference that size is checked against (the
    /// round-trip and encoded-size tests), with [`Instr::decode`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        let len = self.len_field();
        assert!(
            len <= MAX_TENSOR_LEN,
            "tensor length {len} exceeds 24-bit preamble field"
        );
        let preamble = u32::from(self.opcode()) | (len << 8);
        out.extend_from_slice(&preamble.to_le_bytes());
        let (ops, n) = self.operands();
        for word in &ops[..n] {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Decodes the instruction at `buf[pos..]`, returning it and the next
    /// position.
    ///
    /// # Panics
    ///
    /// Panics on a truncated buffer or unknown opcode (scripts are produced
    /// by this crate; corruption is a logic error, not an input error).
    pub fn decode(buf: &[u8], pos: usize) -> (Instr, usize) {
        let word = |i: usize| -> u32 {
            u32::from_le_bytes(
                buf[pos + 4 * i..pos + 4 * i + 4]
                    .try_into()
                    .expect("truncated"),
            )
        };
        let preamble = word(0);
        let opcode = (preamble & 0xFF) as u8;
        let len = preamble >> 8;
        let off = |i: usize| PoolOffset(word(i));
        let chunk = |i: usize| ChunkId(word(i));
        let (instr, nops) = match opcode {
            0 => (Instr::Signal { barrier: word(1) }, 1),
            1 => (
                Instr::Wait {
                    barrier: word(1),
                    needed: word(2),
                },
                2,
            ),
            2 => (
                Instr::MatVecChunk {
                    chunk: chunk(1),
                    len,
                    x: off(2),
                    y: off(3),
                },
                3,
            ),
            3 => (
                Instr::TMatVecChunk {
                    chunk: chunk(1),
                    len,
                    dy: off(2),
                    dx: off(3),
                },
                3,
            ),
            4 => (
                Instr::OuterChunk {
                    chunk: chunk(1),
                    len,
                    x: off(2),
                    dy: off(3),
                },
                3,
            ),
            5 => (
                Instr::AddBiasChunk {
                    chunk: chunk(1),
                    len,
                    x: off(2),
                    y: off(3),
                },
                3,
            ),
            6 => (
                Instr::BiasGradChunk {
                    chunk: chunk(1),
                    len,
                    dy: off(2),
                },
                2,
            ),
            7 => (
                Instr::Tanh {
                    len,
                    x: off(1),
                    y: off(2),
                },
                2,
            ),
            8 => (
                Instr::Sigmoid {
                    len,
                    x: off(1),
                    y: off(2),
                },
                2,
            ),
            9 => (
                Instr::Relu {
                    len,
                    x: off(1),
                    y: off(2),
                },
                2,
            ),
            10 => (
                Instr::TanhBwd {
                    len,
                    y: off(1),
                    dy: off(2),
                    dx: off(3),
                },
                3,
            ),
            11 => (
                Instr::SigmoidBwd {
                    len,
                    y: off(1),
                    dy: off(2),
                    dx: off(3),
                },
                3,
            ),
            12 => (
                Instr::ReluBwd {
                    len,
                    y: off(1),
                    dy: off(2),
                    dx: off(3),
                },
                3,
            ),
            13 => (
                Instr::Add {
                    len,
                    a: off(1),
                    b: off(2),
                    y: off(3),
                },
                3,
            ),
            14 => (
                Instr::AccAdd {
                    len,
                    x: off(1),
                    y: off(2),
                },
                2,
            ),
            15 => (
                Instr::MulAcc {
                    len,
                    a: off(1),
                    b: off(2),
                    y: off(3),
                },
                3,
            ),
            16 => (
                Instr::CwiseMult {
                    len,
                    a: off(1),
                    b: off(2),
                    y: off(3),
                },
                3,
            ),
            17 => (
                Instr::Copy {
                    len,
                    src: off(1),
                    dst: off(2),
                },
                2,
            ),
            18 => (
                Instr::PickNls {
                    len,
                    x: off(1),
                    out: off(2),
                    label: word(3),
                },
                3,
            ),
            19 => (
                Instr::PickNlsBwd {
                    len,
                    x: off(1),
                    dloss: off(2),
                    dx: off(3),
                    label: word(4),
                },
                4,
            ),
            20 => (
                Instr::Sub {
                    len,
                    a: off(1),
                    b: off(2),
                    y: off(3),
                },
                3,
            ),
            21 => (
                Instr::AccSub {
                    len,
                    x: off(1),
                    y: off(2),
                },
                2,
            ),
            other => panic!("unknown opcode {other} in encoded script"),
        };
        (instr, pos + 4 + 4 * nops)
    }
}

/// The per-VPP scripts for one batch, plus their wire encoding.
///
/// The encoded form matches the paper's transfer layout: a prefix-sum header
/// (one `u32` byte-offset per VPP plus a terminator) followed by the
/// concatenated per-VPP instruction streams, so each virtual processor can
/// "quickly index into its own set of instructions" after one bulk
/// host-to-device copy.
///
/// [`ScriptSet::push`] is the only way an instruction gets in, and it keeps
/// two running tallies — encoded bytes per VPP and instructions per opcode —
/// so what the engine and the obs counters need to know about a set's size
/// and mix is read, never recounted.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptSet {
    scripts: Vec<Vec<Instr>>,
    /// Encoded bytes of each VPP's instructions (header excluded).
    vpp_bytes: Vec<u64>,
    /// Instructions per opcode across all VPPs.
    opcode_counts: [u64; MNEMONICS.len()],
}

impl ScriptSet {
    /// Creates an empty script set for `num_vpps` virtual processors.
    pub fn new(num_vpps: usize) -> Self {
        Self {
            scripts: vec![Vec::new(); num_vpps],
            vpp_bytes: vec![0; num_vpps],
            opcode_counts: [0; MNEMONICS.len()],
        }
    }

    /// Creates a script set from per-VPP instruction vectors.
    pub fn from_scripts(scripts: Vec<Vec<Instr>>) -> Self {
        let mut set = Self::new(scripts.len());
        for (vpp, script) in scripts.into_iter().enumerate() {
            for instr in script {
                set.push(vpp, instr);
            }
        }
        set
    }

    /// Number of virtual processors.
    pub fn num_vpps(&self) -> usize {
        self.scripts.len()
    }

    /// Instructions of one VPP.
    ///
    /// # Panics
    ///
    /// Panics if `vpp` is out of range.
    pub fn script(&self, vpp: usize) -> &[Instr] {
        &self.scripts[vpp]
    }

    /// Appends an instruction to one VPP's script.
    ///
    /// # Panics
    ///
    /// Panics if `vpp` is out of range.
    #[inline(always)]
    pub fn push(&mut self, vpp: usize, instr: Instr) {
        self.scripts[vpp].push(instr);
        self.vpp_bytes[vpp] += instr.encoded_len() as u64;
        self.opcode_counts[usize::from(instr.opcode())] += 1;
    }

    /// Total instruction count across VPPs.
    pub fn total_instructions(&self) -> usize {
        self.scripts.iter().map(Vec::len).sum()
    }

    /// Non-sync (compute/copy) instruction count.
    pub fn compute_instructions(&self) -> usize {
        let (signals, waits) = self.sync_instructions();
        self.total_instructions() - (signals + waits) as usize
    }

    /// `(signal, wait)` instruction counts across VPPs.
    pub fn sync_instructions(&self) -> (u64, u64) {
        (self.opcode_counts[SIGNAL], self.opcode_counts[WAIT])
    }

    /// Compute instructions per mnemonic, sorted by mnemonic, mnemonics that
    /// do not occur left out. Every compute instruction executes exactly once
    /// per run, so this static mix *is* the executed-instruction histogram.
    pub fn instr_mix(&self) -> Vec<(&'static str, u64)> {
        let mut mix: Vec<_> = (WAIT + 1..MNEMONICS.len())
            .filter(|&opcode| self.opcode_counts[opcode] > 0)
            .map(|opcode| (MNEMONICS[opcode], self.opcode_counts[opcode]))
            .collect();
        mix.sort_unstable();
        mix
    }

    /// Encoded bytes of one VPP's instructions: what that processor fetches
    /// from DRAM before it starts (the shared header excluded).
    ///
    /// # Panics
    ///
    /// Panics if `vpp` is out of range.
    pub fn vpp_bytes(&self, vpp: usize) -> u64 {
        self.vpp_bytes[vpp]
    }

    /// Encodes header + all scripts into one transferable buffer.
    ///
    /// No simulated path calls this: the script copy to the device is
    /// charged from [`ScriptSet::encoded_bytes`], a running tally. This is
    /// the byte-level reference that tally is tested against
    /// (`encoded_size_matches_prediction`, the round-trip proptests), kept
    /// with [`ScriptSet::decode`] for that reason.
    pub fn encode(&self) -> Vec<u8> {
        let header_len = 4 * (self.scripts.len() + 1);
        let mut body = Vec::new();
        let mut offsets = Vec::with_capacity(self.scripts.len() + 1);
        for script in &self.scripts {
            offsets.push((header_len + body.len()) as u32);
            for instr in script {
                instr.encode(&mut body);
            }
        }
        offsets.push((header_len + body.len()) as u32);
        let mut out = Vec::with_capacity(header_len + body.len());
        for o in offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a buffer produced by [`ScriptSet::encode`] for `num_vpps`
    /// processors.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (scripts are internal artifacts).
    pub fn decode(buf: &[u8], num_vpps: usize) -> Self {
        let header_len = 4 * (num_vpps + 1);
        assert!(
            buf.len() >= header_len,
            "script buffer shorter than its header"
        );
        let offset = |i: usize| -> usize {
            u32::from_le_bytes(buf[4 * i..4 * i + 4].try_into().expect("truncated header")) as usize
        };
        let mut set = Self::new(num_vpps);
        for v in 0..num_vpps {
            let (mut pos, end) = (offset(v), offset(v + 1));
            while pos < end {
                let (instr, next) = Instr::decode(buf, pos);
                set.push(v, instr);
                pos = next;
            }
            assert_eq!(pos, end, "script for VPP {v} did not end on its boundary");
        }
        set
    }

    /// Size of the encoded form in bytes (what the host-to-device copy of
    /// paper §III-B2 transfers).
    pub fn encoded_bytes(&self) -> usize {
        4 * (self.scripts.len() + 1) + self.vpp_bytes.iter().sum::<u64>() as usize
    }

    /// Estimates what the same work would cost under a *RISC* virtual-
    /// processor abstraction (paper §III-B2's "CISC vs. RISC" discussion):
    /// every operand-rich instruction decomposes into explicit load /
    /// compute / store micro-instructions with host-managed staging
    /// resources, each 8 bytes. The host would emit and manage every one of
    /// them, so instruction count is the proxy for the extra runtime
    /// overhead the paper declines to pay.
    pub fn risc_estimate(&self) -> RiscEstimate {
        let mut instructions = 0usize;
        for instr in self.scripts.iter().flatten() {
            instructions += match instr {
                // Barriers stay single instructions.
                Instr::Signal { .. } | Instr::Wait { .. } => 1,
                // One explicit load per source operand, one compute, one
                // store per destination (encoded_len counts operands).
                other => (other.encoded_len() - 4) / 4 + 1,
            };
        }
        RiscEstimate {
            instructions,
            bytes: instructions * 8,
        }
    }
}

/// Result of [`ScriptSet::risc_estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiscEstimate {
    /// Micro-instructions a RISC encoding would need.
    pub instructions: usize,
    /// Encoded bytes at 8 bytes per micro-instruction.
    pub bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::Signal { barrier: 3 },
            Instr::Wait {
                barrier: 3,
                needed: 17,
            },
            Instr::MatVecChunk {
                chunk: ChunkId(9),
                len: 256,
                x: PoolOffset(64),
                y: PoolOffset(512),
            },
            Instr::TMatVecChunk {
                chunk: ChunkId(2),
                len: 128,
                dy: PoolOffset(1),
                dx: PoolOffset(2),
            },
            Instr::OuterChunk {
                chunk: ChunkId(77),
                len: 300,
                x: PoolOffset(3),
                dy: PoolOffset(4),
            },
            Instr::AddBiasChunk {
                chunk: ChunkId(5),
                len: 64,
                x: PoolOffset(5),
                y: PoolOffset(6),
            },
            Instr::BiasGradChunk {
                chunk: ChunkId(5),
                len: 64,
                dy: PoolOffset(66),
            },
            Instr::Tanh {
                len: 10,
                x: PoolOffset(7),
                y: PoolOffset(8),
            },
            Instr::Sigmoid {
                len: 10,
                x: PoolOffset(9),
                y: PoolOffset(10),
            },
            Instr::Relu {
                len: 10,
                x: PoolOffset(11),
                y: PoolOffset(12),
            },
            Instr::TanhBwd {
                len: 10,
                y: PoolOffset(1),
                dy: PoolOffset(2),
                dx: PoolOffset(3),
            },
            Instr::SigmoidBwd {
                len: 10,
                y: PoolOffset(4),
                dy: PoolOffset(5),
                dx: PoolOffset(6),
            },
            Instr::ReluBwd {
                len: 10,
                y: PoolOffset(7),
                dy: PoolOffset(8),
                dx: PoolOffset(9),
            },
            Instr::Add {
                len: 33,
                a: PoolOffset(1),
                b: PoolOffset(2),
                y: PoolOffset(3),
            },
            Instr::Sub {
                len: 33,
                a: PoolOffset(1),
                b: PoolOffset(2),
                y: PoolOffset(3),
            },
            Instr::AccSub {
                len: 33,
                x: PoolOffset(4),
                y: PoolOffset(5),
            },
            Instr::AccAdd {
                len: 33,
                x: PoolOffset(4),
                y: PoolOffset(5),
            },
            Instr::MulAcc {
                len: 33,
                a: PoolOffset(6),
                b: PoolOffset(7),
                y: PoolOffset(8),
            },
            Instr::CwiseMult {
                len: 33,
                a: PoolOffset(9),
                b: PoolOffset(10),
                y: PoolOffset(11),
            },
            Instr::Copy {
                len: 5,
                src: PoolOffset(100),
                dst: PoolOffset(200),
            },
            Instr::PickNls {
                len: 5,
                x: PoolOffset(1),
                out: PoolOffset(2),
                label: 4,
            },
            Instr::PickNlsBwd {
                len: 5,
                x: PoolOffset(1),
                dloss: PoolOffset(2),
                dx: PoolOffset(3),
                label: 4,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for instr in sample_instrs() {
            let mut buf = Vec::new();
            instr.encode(&mut buf);
            let (decoded, next) = Instr::decode(&buf, 0);
            assert_eq!(decoded, instr);
            assert_eq!(next, buf.len());
        }
    }

    #[test]
    fn no_instruction_exceeds_twenty_bytes() {
        for instr in sample_instrs() {
            assert!(instr.encoded_len() <= 20, "{instr:?} too long");
            assert!(instr.encoded_len() >= 8);
        }
    }

    #[test]
    fn tanh_example_is_twelve_bytes() {
        // Paper §III-B1: "for a tanh() operation, the framework generates 12
        // bytes of instructions".
        let t = Instr::Tanh {
            len: 256,
            x: PoolOffset(0),
            y: PoolOffset(0),
        };
        assert_eq!(t.encoded_len(), 12);
    }

    #[test]
    fn preamble_packs_opcode_and_length() {
        let t = Instr::Tanh {
            len: 0xABCDEF,
            x: PoolOffset(1),
            y: PoolOffset(2),
        };
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let preamble = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        assert_eq!(preamble & 0xFF, 7);
        assert_eq!(preamble >> 8, 0xABCDEF);
    }

    #[test]
    #[should_panic(expected = "24-bit")]
    fn oversized_length_rejected() {
        let t = Instr::Tanh {
            len: 1 << 24,
            x: PoolOffset(0),
            y: PoolOffset(0),
        };
        t.encode(&mut Vec::new());
    }

    #[test]
    fn script_set_round_trips() {
        let mut set = ScriptSet::new(3);
        for (i, instr) in sample_instrs().into_iter().enumerate() {
            set.push(i % 3, instr);
        }
        let encoded = set.encode();
        assert_eq!(encoded.len(), set.encoded_bytes());
        let decoded = ScriptSet::decode(&encoded, 3);
        assert_eq!(decoded, set);
    }

    #[test]
    fn empty_scripts_round_trip() {
        let set = ScriptSet::new(4);
        let decoded = ScriptSet::decode(&set.encode(), 4);
        assert_eq!(decoded, set);
        assert_eq!(set.encoded_bytes(), 20); // header only
    }

    #[test]
    fn header_offsets_are_monotonic() {
        let mut set = ScriptSet::new(2);
        set.push(1, Instr::Signal { barrier: 0 });
        let buf = set.encode();
        let o0 = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let o1 = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let o2 = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        assert_eq!(o0, 12);
        assert_eq!(o1, 12); // VPP 0 empty
        assert_eq!(o2, 20); // one 8-byte signal
    }

    #[test]
    fn instruction_counters() {
        let mut set = ScriptSet::new(2);
        set.push(0, Instr::Signal { barrier: 0 });
        set.push(
            0,
            Instr::Tanh {
                len: 4,
                x: PoolOffset(0),
                y: PoolOffset(4),
            },
        );
        set.push(
            1,
            Instr::Wait {
                barrier: 0,
                needed: 1,
            },
        );
        assert_eq!(set.total_instructions(), 3);
        assert_eq!(set.compute_instructions(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn arb_offset() -> impl Strategy<Value = PoolOffset> {
        any::<u32>().prop_map(PoolOffset)
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        let len = 1u32..MAX_TENSOR_LEN;
        prop_oneof![
            any::<u32>().prop_map(|barrier| Instr::Signal { barrier }),
            (any::<u32>(), any::<u32>())
                .prop_map(|(barrier, needed)| Instr::Wait { barrier, needed }),
            (any::<u32>(), len.clone(), arb_offset(), arb_offset()).prop_map(|(c, len, x, y)| {
                Instr::MatVecChunk {
                    chunk: ChunkId(c),
                    len,
                    x,
                    y,
                }
            }),
            (any::<u32>(), len.clone(), arb_offset(), arb_offset()).prop_map(|(c, len, dy, dx)| {
                Instr::TMatVecChunk {
                    chunk: ChunkId(c),
                    len,
                    dy,
                    dx,
                }
            }),
            (len.clone(), arb_offset(), arb_offset()).prop_map(|(len, x, y)| Instr::Tanh {
                len,
                x,
                y
            }),
            (len.clone(), arb_offset(), arb_offset(), arb_offset())
                .prop_map(|(len, a, b, y)| Instr::Add { len, a, b, y }),
            (len.clone(), arb_offset(), arb_offset()).prop_map(|(len, src, dst)| Instr::Copy {
                len,
                src,
                dst
            }),
            (len, arb_offset(), arb_offset(), arb_offset(), any::<u32>()).prop_map(
                |(len, x, dloss, dx, label)| Instr::PickNlsBwd {
                    len,
                    x,
                    dloss,
                    dx,
                    label
                }
            ),
        ]
    }

    proptest! {
        #[test]
        fn arbitrary_instruction_streams_round_trip(
            instrs in prop::collection::vec(arb_instr(), 0..200),
            num_vpps in 1usize..16,
        ) {
            let mut set = ScriptSet::new(num_vpps);
            for (i, instr) in instrs.into_iter().enumerate() {
                set.push(i % num_vpps, instr);
            }
            let decoded = ScriptSet::decode(&set.encode(), num_vpps);
            prop_assert_eq!(&decoded, &set);

            // However a set is built, its running tallies equal a fresh count
            // over its instructions.
            let rebuilt = ScriptSet::from_scripts(set.scripts.clone());
            for built in [&set, &rebuilt, &decoded] {
                let mut bytes = vec![0u64; num_vpps];
                let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
                for (v, script) in built.scripts.iter().enumerate() {
                    for instr in script {
                        bytes[v] += instr.encoded_len() as u64;
                        *counts.entry(instr.mnemonic()).or_insert(0) += 1;
                    }
                }
                let per_vpp: Vec<u64> = (0..num_vpps).map(|v| built.vpp_bytes(v)).collect();
                prop_assert_eq!(&per_vpp, &bytes);
                prop_assert_eq!(
                    built.encoded_bytes() as u64,
                    4 * (num_vpps as u64 + 1) + bytes.iter().sum::<u64>()
                );
                let signals = counts.remove("signal").unwrap_or(0);
                let waits = counts.remove("wait").unwrap_or(0);
                prop_assert_eq!(built.sync_instructions(), (signals, waits));
                prop_assert_eq!(built.instr_mix(), counts.into_iter().collect::<Vec<_>>());
            }
        }

        #[test]
        fn encoded_size_matches_prediction(instrs in prop::collection::vec(arb_instr(), 0..100)) {
            let mut set = ScriptSet::new(1);
            for instr in instrs {
                set.push(0, instr);
            }
            prop_assert_eq!(set.encode().len(), set.encoded_bytes());
        }
    }
}
