//! Event-driven timeline analysis of a generated script set.
//!
//! Because every instruction's cost is data-independent
//! ([`crate::exec::semantics::instr_cost`]), the complete per-VPP schedule of
//! a batch — finish times, barrier stalls, DRAM byte totals, and the exact
//! serial execution order — can be computed *before* any arithmetic runs.
//! [`analyze`] performs that sweep once per batch; every execution backend
//! then reuses the one [`TimelineReport`], which is how every backend
//! reports bit-identical timing and traffic numbers.
//!
//! Nothing is tabulated ahead of the sweep: it prices each instruction shape
//! with `instr_cost` the first time it advances past one (`Prices`) and
//! reads the price back after, and reads each VPP's script-fetch bytes and
//! the per-mnemonic instruction mix from the tallies
//! [`crate::script::ScriptSet`] keeps as it is built. The lowering pass
//! ([`crate::engine::lowered`]) caches the
//! resulting [`TimelineReport`] with its micro-ops, so re-running an identical
//! script repeats neither.

use std::cell::RefCell;
use std::sync::OnceLock;

use gpu_sim::{CostModel, DeviceConfig, SimTime};
use vpps_obs::{Counter, SimTrace};

use crate::distribute::Distribution;
use crate::exec::semantics::{instr_cost, InstrCost};
use crate::script::isa::{MNEMONICS, OPCODES};
use crate::script::{GeneratedScript, Instr};
use crate::specialize::KernelPlan;

/// Complete static schedule of one batch's scripts.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Script-phase finish time of each VPP.
    pub vpp_times: Vec<SimTime>,
    /// Latest VPP finish time (the script phase's critical path).
    pub max_vpp_time: SimTime,
    /// Mean VPP finish time — `max / mean` is the load-imbalance figure.
    pub mean_vpp_time: SimTime,
    /// Total time VPPs spent blocked at `wait` instructions.
    pub barrier_stall: SimTime,
    /// Per-VPP share of [`TimelineReport::barrier_stall`] — which processors
    /// the level barriers actually held up.
    pub vpp_stall: Vec<SimTime>,
    /// DRAM bytes read by compute instructions (activations).
    pub total_read_bytes: u64,
    /// DRAM bytes written by compute instructions (activations).
    pub total_write_bytes: u64,
    /// Encoded script bytes fetched by the VPPs.
    pub script_bytes: u64,
    /// Compute instructions executed across all VPPs.
    pub instructions: usize,
    /// Executed compute instructions per mnemonic (the script's static mix).
    pub instr_mix: Vec<(&'static str, u64)>,
    /// `(vpp, instruction index)` of every compute instruction in the order
    /// the event-driven schedule executes them. Replaying this order serially
    /// reproduces the reference execution exactly; it also defines the op
    /// order of the lowered backend's flat micro-op array.
    pub order: Vec<(u32, u32)>,
}

impl TimelineReport {
    /// Records this schedule's per-run observability: the per-mnemonic
    /// executed-instruction counters, the barrier count and the per-VPP
    /// stall histogram.
    ///
    /// Called once per engine run (fresh analysis or cached timeline alike),
    /// so a run that reuses a lowered artifact reports exactly the same
    /// counters as one that analyzed from scratch.
    pub fn record_obs(&self, num_barriers: u32) {
        if !vpps_obs::enabled() {
            return;
        }
        static INSTR: [OnceLock<Counter>; OPCODES] = [const { OnceLock::new() }; OPCODES];
        self.count_mix("engine.instr", &INSTR);
        vpps_obs::counter("engine.barriers").add(u64::from(num_barriers));
        let stall_hist = vpps_obs::histogram("engine.vpp_stall_ns");
        for s in &self.vpp_stall {
            stall_hist.record(s.as_ns() as u64);
        }
    }

    /// Adds each count of [`TimelineReport::instr_mix`] to the obs counter
    /// `{prefix}.{mnemonic}`. `names` keeps each counter by opcode once it is
    /// resolved, so a name is formatted and looked up once per process and
    /// the set of registered names is what it would be without the caching.
    pub(crate) fn count_mix(&self, prefix: &str, names: &[OnceLock<Counter>; OPCODES]) {
        for &(mnemonic, n) in &self.instr_mix {
            let opcode = MNEMONICS.iter().position(|&m| m == mnemonic);
            names[opcode.expect("a mnemonic of the instruction set")]
                .get_or_init(|| vpps_obs::counter(&format!("{prefix}.{mnemonic}")))
                .add(n);
        }
    }
}

/// A memoised price: the instruction length it was found for, the
/// instruction's [`instr_cost`] and its time on one VPP.
type Price = (Option<u32>, InstrCost, SimTime);

/// The prices a thread's analyses found for one plan under one cost model,
/// each instruction shape priced once: a chunk instruction by its opcode
/// and chunk, every other one by its opcode, each priced again for another
/// length. A price is what [`instr_cost`] and
/// [`CostModel::vpp_instruction_time`] return for the instruction — pure
/// functions of those fields, the plan's chunks and the device — so the
/// schedule adds the same `f64`s in the same order as pricing every
/// instruction afresh. Kept from analysis to analysis (no table is
/// allocated per batch) and emptied when the plan or the device changes.
#[derive(Default)]
struct Prices {
    plan_id: u64,
    device: Option<DeviceConfig>,
    /// Per chunk, a mat-vec's, a transposed mat-vec's and an outer
    /// product's price.
    by_chunk: Vec<Price>,
    by_opcode: [Price; OPCODES],
}

thread_local! {
    static PRICES: RefCell<Prices> = RefCell::default();
}

impl Prices {
    /// Readies the prices for `plan` under `cost`.
    fn for_plan(&mut self, plan: &KernelPlan, cost: &CostModel) {
        let chunks = 3 * plan.distribution().chunks().len();
        let (plan_id, device) = (plan.signature().plan_id(), Some(cost.config()));
        if (self.plan_id, self.device.as_ref()) != (plan_id, device)
            || self.by_chunk.len() != chunks
        {
            let by_chunk = vec![Price::default(); chunks];
            let device = device.cloned();
            *self = Prices {
                plan_id,
                device,
                by_chunk,
                ..Prices::default()
            };
        }
    }

    fn of(&mut self, instr: &Instr, dist: &Distribution, cost: &CostModel) -> (InstrCost, SimTime) {
        let slot = match *instr {
            Instr::MatVecChunk { chunk, .. } => &mut self.by_chunk[3 * chunk.index()],
            Instr::TMatVecChunk { chunk, .. } => &mut self.by_chunk[3 * chunk.index() + 1],
            Instr::OuterChunk { chunk, .. } => &mut self.by_chunk[3 * chunk.index() + 2],
            _ => &mut self.by_opcode[usize::from(instr.opcode())],
        };
        let len = instr.len_field();
        if slot.0 != Some(len) {
            let c = instr_cost(instr, dist);
            let ctas = dist.geometry().ctas_per_sm;
            let time = cost.vpp_instruction_time(c.read_bytes + c.write_bytes, c.flops, ctas);
            *slot = (Some(len), c, time);
        }
        (slot.1, slot.2)
    }
}

/// Sweeps the scripts with the event-driven scheduler, once per batch: each
/// VPP advances its own clock by the static cost of the instruction it
/// executes, `signal` records an arrival at its barrier, `wait` merges the
/// barrier's release time. Identical control flow to the original
/// interpreter, minus the arithmetic.
///
/// When `trace` is given, per-instruction events are recorded for the
/// visualization tooling.
///
/// # Panics
///
/// Panics if the scripts deadlock (a script-generator bug, caught eagerly),
/// or if `gs` was generated for a plan with another VPP count.
pub fn analyze(
    plan: &KernelPlan,
    gs: &GeneratedScript,
    cost: &CostModel,
    mut trace: Option<&mut SimTrace>,
) -> TimelineReport {
    let dist = plan.distribution();
    let geo = dist.geometry();
    let num_vpps = geo.total_vpps();
    assert_eq!(
        gs.scripts.num_vpps(),
        num_vpps,
        "scripts were generated for another plan"
    );

    #[derive(Clone, Copy, Default)]
    struct Barrier {
        arrived: u32,
        release: SimTime,
    }

    let mut times = vec![SimTime::ZERO; num_vpps];
    let mut ips = vec![0usize; num_vpps];
    let mut barriers = vec![Barrier::default(); gs.num_barriers as usize];
    let mut instructions = 0usize;
    let mut order = Vec::new();
    let mut prices = PRICES.take();
    prices.for_plan(plan, cost);
    let mut barrier_stall = SimTime::ZERO;
    let mut vpp_stall = vec![SimTime::ZERO; num_vpps];

    // Each VPP fetches its own script section from DRAM into shared memory.
    let mut script_bytes = 0u64;
    for v in 0..num_vpps {
        let bytes = gs.scripts.vpp_bytes(v);
        if bytes > 0 {
            script_bytes += bytes;
            times[v] = cost.vpp_mem_time(bytes);
        }
    }

    let mut total_read = 0u64;
    let mut total_write = 0u64;
    loop {
        let mut progress = false;
        let mut all_done = true;
        for v in 0..num_vpps {
            let script = gs.scripts.script(v);
            while ips[v] < script.len() {
                match script[ips[v]] {
                    Instr::Wait { barrier, needed } => {
                        let b = &barriers[barrier as usize];
                        if b.arrived >= needed {
                            let start = times[v];
                            let stall = times[v].max(b.release) - times[v];
                            barrier_stall += stall;
                            vpp_stall[v] += stall;
                            times[v] = times[v].max(b.release) + cost.wait_poll_time();
                            if let Some(t) = trace.as_deref_mut() {
                                t.push(v, "wait", start.as_ns(), (times[v] - start).as_ns());
                            }
                            ips[v] += 1;
                            progress = true;
                        } else {
                            break;
                        }
                    }
                    Instr::Signal { barrier } => {
                        let start = times[v];
                        times[v] += cost.signal_time();
                        let b = &mut barriers[barrier as usize];
                        b.arrived += 1;
                        b.release = b.release.max(times[v]);
                        if let Some(t) = trace.as_deref_mut() {
                            t.push(v, "signal", start.as_ns(), (times[v] - start).as_ns());
                        }
                        ips[v] += 1;
                        progress = true;
                    }
                    ref instr => {
                        let (c, time) = prices.of(instr, dist, cost);
                        total_read += c.read_bytes;
                        total_write += c.write_bytes;
                        let start = times[v];
                        times[v] += time;
                        if let Some(t) = trace.as_deref_mut() {
                            t.push(
                                v,
                                instr.mnemonic(),
                                start.as_ns(),
                                (times[v] - start).as_ns(),
                            );
                        }
                        order.push((v as u32, ips[v] as u32));
                        instructions += 1;
                        ips[v] += 1;
                        progress = true;
                    }
                }
            }
            if ips[v] < script.len() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        assert!(progress, "script deadlock: no VPP can make progress");
    }

    PRICES.set(prices);
    let max_vpp_time = times.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let mean_vpp_time =
        SimTime::from_ns(times.iter().map(|t| t.as_ns()).sum::<f64>() / num_vpps as f64);

    TimelineReport {
        vpp_times: times,
        max_vpp_time,
        mean_vpp_time,
        barrier_stall,
        vpp_stall,
        total_read_bytes: total_read,
        total_write_bytes: total_write,
        script_bytes,
        instructions,
        instr_mix: gs.scripts.instr_mix(),
        order,
    }
}
