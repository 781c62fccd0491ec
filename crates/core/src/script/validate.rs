//! Script validation: a static proof that a script set's barrier protocol
//! orders every producer before every consumer.
//!
//! The script generator is the correctness-critical host component — a wrong
//! `needed` count deadlocks the GPU, a missing barrier silently races — so
//! [`validate_protocol`] checks any [`ScriptSet`] before launch. It does not
//! run the scripts concurrently and sample one interleaving: it proves the
//! property for all of them. Levels make the barriers a happens-before order
//! (level *k* of every VPP finishes before level *k + 1* of any VPP starts),
//! so the only accesses that can race are two VPPs' accesses within one
//! level, and those are checked element by element.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use vpps_tensor::PoolOffset;

use crate::distribute::{ChunkId, Distribution};
use crate::exec::semantics::{execute_instr, ExecCtx};
use crate::script::isa::{Instr, ScriptSet};

/// A violation of the signal/wait protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Waits on `barrier` disagree about how many signals satisfy it.
    InconsistentNeeded {
        /// The barrier index.
        barrier: u32,
    },
    /// A barrier receives a different number of signals than its waiters
    /// require — too few deadlocks, too many races the next level.
    SignalCountMismatch {
        /// The barrier index.
        barrier: u32,
        /// Signals emitted across all VPPs.
        signals: u32,
        /// Signals the waiters require.
        needed: u32,
    },
    /// A VPP's script is not a sequence of levels `Wait{k−1}? body+
    /// Signal{k}` with `k` strictly increasing, the `Wait` present exactly
    /// when `k > 0` and requiring at least one signal.
    MalformedLevel {
        /// The VPP whose script breaks the shape.
        vpp: usize,
        /// Index of the offending instruction in that script (the script
        /// length if it ends inside a level).
        at: usize,
    },
    /// An instruction addresses a register chunk another VPP owns.
    ForeignChunk {
        /// The VPP executing the instruction.
        vpp: usize,
        /// The level it executes in.
        level: u32,
        /// The chunk.
        chunk: ChunkId,
    },
    /// Two VPPs touch one pool element in the same level, and not both only
    /// read it or both only accumulate into it.
    Race {
        /// The level both accesses execute in.
        level: u32,
        /// The pool element.
        offset: PoolOffset,
        /// The two VPPs.
        vpps: (usize, usize),
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InconsistentNeeded { barrier } => {
                write!(f, "barrier {barrier}: waits disagree on the needed count")
            }
            ProtocolError::SignalCountMismatch {
                barrier,
                signals,
                needed,
            } => write!(
                f,
                "barrier {barrier}: {signals} signals emitted but waiters need {needed}"
            ),
            ProtocolError::MalformedLevel { vpp, at } => {
                write!(f, "vpp {vpp}: instruction {at} breaks the level shape")
            }
            ProtocolError::ForeignChunk { vpp, level, chunk } => write!(
                f,
                "vpp {vpp}, level {level}: chunk {} belongs to another vpp",
                chunk.0
            ),
            ProtocolError::Race {
                level,
                offset,
                vpps: (a, b),
            } => write!(
                f,
                "level {level}: vpps {a} and {b} race on pool element {offset}"
            ),
        }
    }
}

impl Error for ProtocolError {}

/// How an instruction touched a pool range: one bit each, so a pool
/// element's accesses within a level fold into one mask.
const READ: u8 = 1;
const WRITE: u8 = 2;
const ACCUMULATE: u8 = 4;

/// The [`ExecCtx`] every body instruction runs against during validation:
/// reads see zeros and nothing is stored, so [`execute_instr`] reports
/// exactly the accesses the interpreter performs and changes nothing.
struct Recorder<'a> {
    dist: &'a Distribution,
    /// The VPP whose instruction is being recorded.
    vpp: usize,
    /// Pool ranges the instruction touched.
    touched: RefCell<Vec<(PoolOffset, usize, u8)>>,
    /// A chunk it addressed that `vpp` does not own.
    foreign: Cell<Option<ChunkId>>,
    /// Stand-in register storage, as long as the longest chunk. Stays zero:
    /// with zero operands no routine changes a chunk.
    zeros: Vec<f32>,
}

impl Recorder<'_> {
    fn note_chunk(&self, id: ChunkId) -> usize {
        let c = self.dist.chunk(id);
        if c.vpp != self.vpp {
            self.foreign.set(Some(id));
        }
        c.len()
    }
}

impl ExecCtx for Recorder<'_> {
    fn read(&self, off: PoolOffset, out: &mut [f32]) {
        out.fill(0.0);
        self.touched.borrow_mut().push((off, out.len(), READ));
    }

    fn write(&mut self, off: PoolOffset, data: &[f32]) {
        self.touched.get_mut().push((off, data.len(), WRITE));
    }

    fn accumulate(&mut self, off: PoolOffset, data: &[f32]) {
        self.touched.get_mut().push((off, data.len(), ACCUMULATE));
    }

    fn chunk(&self, id: ChunkId) -> &[f32] {
        let len = self.note_chunk(id);
        &self.zeros[..len]
    }

    fn chunk_mut(&mut self, id: ChunkId) -> &mut [f32] {
        let len = self.note_chunk(id);
        &mut self.zeros[..len]
    }
}

/// Everything one level did to one pool element so far.
struct Touch {
    /// The first VPP to touch it.
    first: usize,
    /// The latest other VPP to touch it.
    other: Option<usize>,
    /// Every access kind any VPP made.
    kinds: u8,
}

/// Proves the signal/wait protocol of a script set race-free and
/// deadlock-free against the chunk table of `dist`, in one pass:
///
/// 1. **Levels.** Each VPP's script is `(Wait{k−1}? body+ Signal{k})*` with
///    `k` strictly increasing and the `Wait` present exactly when `k > 0`;
///    all waits on a barrier agree on `needed` (at least one), and each
///    waited barrier receives exactly `needed` signals. Barrier order is
///    then a happens-before order between levels, and no wait can block
///    forever.
/// 2. **Ownership.** Every chunk instruction runs on its chunk's VPP, so
///    register chunks are never shared.
/// 3. **Races.** Within one level, a pool element two VPPs touch is either
///    only read or only accumulated into (the paper's `atomicAdd`, which
///    commutes up to rounding) by both.
///
/// The accesses are those [`execute_instr`] performs, recorded rather than
/// listed a second time.
///
/// # Errors
///
/// Returns the first violation found.
///
/// # Panics
///
/// Panics if an instruction names a chunk `dist` does not have.
pub fn validate_protocol(scripts: &ScriptSet, dist: &Distribution) -> Result<(), ProtocolError> {
    let mut signal_count: HashMap<u32, u32> = HashMap::new();
    // Ordered, so the first mismatch reported is the same on every run.
    let mut wait_needed: BTreeMap<u32, u32> = BTreeMap::new();
    let mut touches: HashMap<(u32, u32), Touch> = HashMap::new();
    let longest = dist.chunks().iter().map(|c| c.len()).max().unwrap_or(0);
    let mut rec = Recorder {
        dist,
        vpp: 0,
        touched: RefCell::new(Vec::new()),
        foreign: Cell::new(None),
        zeros: vec![0.0; longest],
    };
    for v in 0..scripts.num_vpps() {
        rec.vpp = v;
        let script = scripts.script(v);
        // The lowest level this VPP may open next, and the open level with
        // whether its body has begun.
        let mut next_level = 0u64;
        let mut open: Option<(u32, bool)> = None;
        for (at, instr) in script.iter().enumerate() {
            let malformed = ProtocolError::MalformedLevel { vpp: v, at };
            let level = match (*instr, open) {
                (Instr::Wait { barrier, needed }, None) => {
                    let Some(k) = barrier
                        .checked_add(1)
                        .filter(|&k| u64::from(k) >= next_level && needed > 0)
                    else {
                        return Err(malformed);
                    };
                    if *wait_needed.entry(barrier).or_insert(needed) != needed {
                        return Err(ProtocolError::InconsistentNeeded { barrier });
                    }
                    open = Some((k, false));
                    continue;
                }
                (Instr::Signal { barrier }, Some((k, true))) if barrier == k => {
                    *signal_count.entry(barrier).or_default() += 1;
                    next_level = u64::from(k) + 1;
                    open = None;
                    continue;
                }
                (Instr::Wait { .. } | Instr::Signal { .. }, _) => return Err(malformed),
                (_, None) if next_level > 0 => return Err(malformed),
                (_, None) => 0,
                (_, Some((k, _))) => k,
            };
            open = Some((level, true));

            execute_instr(instr, dist, &mut rec);
            if let Some(chunk) = rec.foreign.take() {
                return Err(ProtocolError::ForeignChunk {
                    vpp: v,
                    level,
                    chunk,
                });
            }
            for (off, len, kind) in rec.touched.get_mut().drain(..) {
                for e in off.raw()..off.raw() + len as u32 {
                    let t = touches.entry((level, e)).or_insert(Touch {
                        first: v,
                        other: None,
                        kinds: 0,
                    });
                    if v != t.first {
                        t.other = Some(v);
                    }
                    t.kinds |= kind;
                    if let Some(other) = t.other {
                        if t.kinds != READ && t.kinds != ACCUMULATE {
                            return Err(ProtocolError::Race {
                                level,
                                offset: PoolOffset(e),
                                vpps: (t.first, other),
                            });
                        }
                    }
                }
            }
        }
        if open.is_some() {
            return Err(ProtocolError::MalformedLevel {
                vpp: v,
                at: script.len(),
            });
        }
    }
    for (barrier, needed) in wait_needed {
        let signals = signal_count.get(&barrier).copied().unwrap_or(0);
        if signals != needed {
            return Err(ProtocolError::SignalCountMismatch {
                barrier,
                signals,
                needed,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::{DistGeometry, ParamShape};
    use gpu_sim::DeviceConfig;

    /// Two VPPs, each owning one 8-row value chunk of a 16 × 8 matrix.
    fn dist() -> Distribution {
        let mut m = dyn_graph::Model::new(0);
        let w = m.add_matrix("W", 16, 8);
        let mut d = DeviceConfig::titan_v();
        d.num_sms = 2;
        let geo = DistGeometry::derive(&d, 1, 1, 8).unwrap();
        let shapes = [ParamShape {
            id: w,
            rows: 16,
            cols: 8,
        }];
        Distribution::build(&shapes, geo, false).unwrap()
    }

    fn tanh(x: u32, y: u32) -> Instr {
        Instr::Tanh {
            len: 4,
            x: PoolOffset(x),
            y: PoolOffset(y),
        }
    }

    fn copy(src: u32, dst: u32) -> Instr {
        Instr::Copy {
            len: 4,
            src: PoolOffset(src),
            dst: PoolOffset(dst),
        }
    }

    fn acc(x: u32, y: u32) -> Instr {
        Instr::AccAdd {
            len: 4,
            x: PoolOffset(x),
            y: PoolOffset(y),
        }
    }

    /// VPP `v` runs `bodies[v]` as its only level, level 0.
    fn one_level(bodies: &[&[Instr]]) -> ScriptSet {
        let mut s = ScriptSet::new(bodies.len());
        for (v, body) in bodies.iter().enumerate() {
            for &i in *body {
                s.push(v, i);
            }
            s.push(v, Instr::Signal { barrier: 0 });
        }
        s
    }

    fn ok_set() -> ScriptSet {
        let mut s = ScriptSet::new(2);
        s.push(0, tanh(0, 4));
        s.push(0, Instr::Signal { barrier: 0 });
        s.push(
            1,
            Instr::Wait {
                barrier: 0,
                needed: 1,
            },
        );
        s.push(1, copy(4, 8));
        s.push(1, Instr::Signal { barrier: 1 });
        s
    }

    #[test]
    fn valid_protocol_passes() {
        assert_eq!(validate_protocol(&ok_set(), &dist()), Ok(()));
    }

    #[test]
    fn undersignalled_barrier_detected() {
        let mut s = ok_set();
        s.push(
            1,
            Instr::Wait {
                barrier: 1,
                needed: 3,
            },
        );
        s.push(1, tanh(8, 12));
        s.push(1, Instr::Signal { barrier: 2 });
        assert_eq!(
            validate_protocol(&s, &dist()),
            Err(ProtocolError::SignalCountMismatch {
                barrier: 1,
                signals: 1,
                needed: 3
            })
        );
    }

    #[test]
    fn inconsistent_needed_detected() {
        let mut s = ok_set();
        s.push(
            0,
            Instr::Wait {
                barrier: 0,
                needed: 2,
            },
        );
        s.push(0, copy(4, 12));
        s.push(0, Instr::Signal { barrier: 1 });
        assert_eq!(
            validate_protocol(&s, &dist()),
            Err(ProtocolError::InconsistentNeeded { barrier: 0 })
        );
    }

    #[test]
    fn out_of_order_barriers_detected() {
        let mut s = ScriptSet::new(1);
        s.push(0, Instr::Signal { barrier: 3 });
        s.push(
            0,
            Instr::Wait {
                barrier: 1,
                needed: 1,
            },
        );
        assert!(matches!(
            validate_protocol(&s, &dist()),
            Err(ProtocolError::MalformedLevel { vpp: 0, at: 0 })
        ));
    }

    #[test]
    fn malformed_levels_detected() {
        let malformed = |s: &ScriptSet, vpp, at| {
            assert_eq!(
                validate_protocol(s, &dist()),
                Err(ProtocolError::MalformedLevel { vpp, at })
            );
        };
        // A level after the first without its wait.
        let mut s = ok_set();
        s.push(0, copy(4, 12));
        s.push(0, Instr::Signal { barrier: 1 });
        malformed(&s, 0, 2);
        // A wait inside a body.
        let mut s = ok_set();
        s.push(
            1,
            Instr::Wait {
                barrier: 1,
                needed: 1,
            },
        );
        s.push(
            1,
            Instr::Wait {
                barrier: 1,
                needed: 1,
            },
        );
        malformed(&s, 1, 4);
        // A script that ends inside a level.
        let mut s = ok_set();
        s.push(
            1,
            Instr::Wait {
                barrier: 1,
                needed: 1,
            },
        );
        s.push(1, tanh(8, 12));
        malformed(&s, 1, 5);
    }

    #[test]
    fn write_read_race_detected() {
        let s = one_level(&[&[tanh(0, 4)], &[copy(4, 8)]]);
        assert_eq!(
            validate_protocol(&s, &dist()),
            Err(ProtocolError::Race {
                level: 0,
                offset: PoolOffset(4),
                vpps: (0, 1)
            })
        );
    }

    #[test]
    fn write_write_race_detected() {
        let s = one_level(&[&[tanh(0, 8)], &[copy(4, 10)]]);
        assert_eq!(
            validate_protocol(&s, &dist()),
            Err(ProtocolError::Race {
                level: 0,
                offset: PoolOffset(10),
                vpps: (0, 1)
            })
        );
    }

    #[test]
    fn read_accumulate_race_detected() {
        let s = one_level(&[&[copy(8, 0)], &[acc(4, 8)]]);
        assert_eq!(
            validate_protocol(&s, &dist()),
            Err(ProtocolError::Race {
                level: 0,
                offset: PoolOffset(8),
                vpps: (0, 1)
            })
        );
    }

    #[test]
    fn shared_reads_and_shared_accumulates_pass() {
        let s = one_level(&[&[acc(0, 8), copy(0, 16)], &[acc(4, 8), copy(0, 20)]]);
        assert_eq!(validate_protocol(&s, &dist()), Ok(()));
    }

    #[test]
    fn foreign_chunk_detected() {
        let dist = dist();
        let theirs = dist.chunks().iter().position(|c| c.vpp == 1).unwrap();
        let chunk = ChunkId(theirs as u32);
        let s = one_level(&[&[Instr::MatVecChunk {
            chunk,
            len: 8,
            x: PoolOffset(0),
            y: PoolOffset(8),
        }]]);
        assert_eq!(
            validate_protocol(&s, &dist),
            Err(ProtocolError::ForeignChunk {
                vpp: 0,
                level: 0,
                chunk
            })
        );
    }
}
