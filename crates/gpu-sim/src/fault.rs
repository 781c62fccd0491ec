//! Deterministic fault injection.
//!
//! The paper's design is fragile by construction: a persistent kernel pins
//! every weight in the register file of live SMs, so a hung VPP, a flipped
//! pool word or a failed JIT poisons the whole model state. This module
//! models that misbehavior as faithfully as the happy path: a seeded
//! [`FaultProfile`] draws Bernoulli trials on the *virtual* clock, journals
//! every injected fault with its timestamp, and is therefore byte-reproducible
//! — two runs with the same seed and the same draw sequence inject the same
//! faults at the same virtual times.
//!
//! The injector is detection-level: it decides *that* a fault occurred (a
//! corrupted transfer caught by a checksum, an ECC-flagged DRAM word, a
//! launch the driver rejected, a CTA the watchdog declared hung), not the
//! corrupted bits themselves. That keeps recovered results bit-identical to
//! fault-free runs — a faulted attempt computes nothing and the recovery
//! layer re-executes it instead of propagating garbage — which is what makes
//! chaos runs self-validating.
//!
//! The RNG is a self-contained splitmix64 stream, deliberately independent of
//! the workspace `rand` shim: fault draws must never perturb (or be perturbed
//! by) workload RNG streams, and `gpu-sim` stays dependency-free.

use std::sync::OnceLock;

use crate::time::SimTime;

/// The kinds of fault the injector can produce, in their fixed draw order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A device-to-device transfer (H2D/D2H) delivered corrupted data,
    /// caught by an end-to-end checksum before the kernel consumed it.
    TransferCorruption,
    /// The driver rejected a kernel launch transiently (the launch overhead
    /// is still paid).
    LaunchFailure,
    /// One CTA stopped advancing mid-run; the watchdog declares the kernel
    /// hung after its timeout elapses on the virtual clock.
    VppHang,
    /// A word in the DRAM pool was corrupted during the run and flagged by
    /// ECC after the kernel completed (the full body time is paid).
    DramCorruption,
    /// JIT specialization (NVRTC program compile / module load) failed
    /// transiently.
    JitFailure,
}

impl FaultKind {
    /// Every kind, in the fixed per-attempt draw order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TransferCorruption,
        FaultKind::LaunchFailure,
        FaultKind::VppHang,
        FaultKind::DramCorruption,
        FaultKind::JitFailure,
    ];

    /// Stable snake_case name, used in obs counters (`fault.injected.<name>`)
    /// and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransferCorruption => "transfer_corruption",
            FaultKind::LaunchFailure => "launch_failure",
            FaultKind::VppHang => "vpp_hang",
            FaultKind::DramCorruption => "dram_corruption",
            FaultKind::JitFailure => "jit_failure",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::TransferCorruption => 0,
            FaultKind::LaunchFailure => 1,
            FaultKind::VppHang => 2,
            FaultKind::DramCorruption => 3,
            FaultKind::JitFailure => 4,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a scheduled whole-device outage manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutageKind {
    /// The device dies at the window start: resident state is lost and every
    /// queued or in-flight batch must be re-dispatched elsewhere.
    Crash,
    /// The device freezes: completions stop arriving but nothing is reported,
    /// so the serving layer only learns of it when a watchdog deadline lapses.
    Hang,
    /// The device keeps running but slower (thermal throttle, ECC retirement
    /// storms): service times inside the window are scaled up.
    Brownout,
}

impl OutageKind {
    /// Every kind, in a fixed order for sweeps.
    pub const ALL: [OutageKind; 3] = [OutageKind::Crash, OutageKind::Hang, OutageKind::Brownout];

    /// Stable snake_case name, used in spec parsing and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            OutageKind::Crash => "crash",
            OutageKind::Hang => "hang",
            OutageKind::Brownout => "brownout",
        }
    }
}

impl std::fmt::Display for OutageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Maximum scheduled outage windows per [`FaultConfig`]. A fixed-size array
/// keeps the config `Copy` so it can keep flowing by value through
/// `VppsOptions` and the serve scenarios.
pub const MAX_OUTAGES: usize = 4;

/// One scheduled device-scoped outage window on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Which device the outage hits (serve-layer device index).
    pub device: u32,
    /// How the outage manifests.
    pub kind: OutageKind,
    /// Virtual time the outage begins.
    pub start: SimTime,
    /// Virtual time the outage ends (device becomes revivable).
    pub end: SimTime,
}

impl OutageWindow {
    /// Parses a `DEV@START..END[:kind]` spec, times in virtual microseconds;
    /// `kind` is `crash` (default), `hang` or `brownout`.
    ///
    /// `"1@300..600:hang"` hangs device 1 from t=300µs to t=600µs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed specs or `end <= start`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (window, kind) = match spec.rsplit_once(':') {
            Some((w, k)) => {
                let kind = OutageKind::ALL
                    .into_iter()
                    .find(|o| o.name() == k.trim())
                    .ok_or_else(|| format!("unknown outage kind `{}`", k.trim()))?;
                (w, kind)
            }
            None => (spec, OutageKind::Crash),
        };
        let (dev, span) = window
            .split_once('@')
            .ok_or_else(|| format!("outage `{spec}` is not DEV@START..END[:kind]"))?;
        let device: u32 = dev
            .trim()
            .parse()
            .map_err(|_| format!("outage device `{}` is not an integer", dev.trim()))?;
        let (start, end) = span
            .split_once("..")
            .ok_or_else(|| format!("outage window `{span}` is not START..END"))?;
        let start_us: f64 = start
            .trim()
            .parse()
            .map_err(|_| format!("outage start `{}` is not a number", start.trim()))?;
        let end_us: f64 = end
            .trim()
            .parse()
            .map_err(|_| format!("outage end `{}` is not a number", end.trim()))?;
        // `SimTime` holds finite nanoseconds, so it is the scaled end that
        // must be finite (`1e306` µs is a finite f64, `1e309` ns is not).
        if !(end_us * 1e3).is_finite() || !(0.0..end_us).contains(&start_us) {
            return Err(format!(
                "outage window `{span}` must satisfy 0 <= start < end"
            ));
        }
        Ok(Self {
            device,
            kind,
            start: SimTime::from_us(start_us),
            end: SimTime::from_us(end_us),
        })
    }
}

/// Per-run fault rates plus the injector seed.
///
/// `enabled` distinguishes "an armed injector whose rates happen to be zero"
/// from "no injector at all": the rate-0-armed configuration must be
/// bit-identical to the disabled one (a tested invariant), but it still
/// exercises the whole injection/recovery plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Arms the injector. When `false` no [`FaultProfile`] is constructed at
    /// all and every rate is ignored.
    pub enabled: bool,
    /// Seed for the deterministic draw stream.
    pub seed: u64,
    /// Probability an H2D/D2H transfer delivers corrupted data.
    pub transfer_corruption: f64,
    /// Probability a kernel launch fails transiently.
    pub launch_failure: f64,
    /// Probability a CTA hangs mid-run.
    pub vpp_hang: f64,
    /// Probability ECC flags a corrupted pool word after a run.
    pub dram_corruption: f64,
    /// Probability a JIT specialization attempt fails.
    pub jit_failure: f64,
    /// Device index this profile's draw stream is scoped to. Each device gets
    /// its own splitmix64 stream derived from `seed ^ golden-ratio·device`, so
    /// per-device journals are disjoint and device 0 reproduces the legacy
    /// single-device stream exactly.
    pub device: u32,
    /// Service-time multiplier applied to batches started inside a
    /// [`OutageKind::Brownout`] window (must be >= 1).
    pub brownout_factor: f64,
    /// Scheduled whole-device outage windows (`None` slots unused). The
    /// serving layer's health machinery activates whenever any slot is set,
    /// independently of `enabled` — an armed-rate-0 injector must still be
    /// bit-identical to a disabled one.
    pub outages: [Option<OutageWindow>; MAX_OUTAGES],
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultConfig {
    /// No injector at all: the fault-free configuration every other run is
    /// compared against.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            seed: 0,
            transfer_corruption: 0.0,
            launch_failure: 0.0,
            vpp_hang: 0.0,
            dram_corruption: 0.0,
            jit_failure: 0.0,
            device: 0,
            brownout_factor: 4.0,
            outages: [None; MAX_OUTAGES],
        }
    }

    /// An armed injector applying `rate` uniformly to every fault kind.
    /// `uniform(seed, 0.0)` is the armed-but-silent profile whose results
    /// must be bit-identical to [`FaultConfig::disabled`].
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            enabled: true,
            seed,
            transfer_corruption: rate,
            launch_failure: rate,
            vpp_hang: rate,
            dram_corruption: rate,
            jit_failure: rate,
            ..Self::disabled()
        }
    }

    /// Adds an outage window to the first free slot.
    ///
    /// # Errors
    ///
    /// Returns an error once all [`MAX_OUTAGES`] slots are taken.
    pub fn push_outage(&mut self, window: OutageWindow) -> Result<(), String> {
        match self.outages.iter_mut().find(|s| s.is_none()) {
            Some(slot) => {
                *slot = Some(window);
                Ok(())
            }
            None => Err(format!("at most {MAX_OUTAGES} outage windows supported")),
        }
    }

    /// The scheduled outage windows, in slot order.
    pub fn outage_windows(&self) -> impl Iterator<Item = OutageWindow> + '_ {
        self.outages.iter().flatten().copied()
    }

    /// `true` if any outage window is scheduled.
    pub fn has_outages(&self) -> bool {
        self.outages.iter().any(|s| s.is_some())
    }

    /// The configured rate for one kind, clamped to `[0, 1]`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        let r = match kind {
            FaultKind::TransferCorruption => self.transfer_corruption,
            FaultKind::LaunchFailure => self.launch_failure,
            FaultKind::VppHang => self.vpp_hang,
            FaultKind::DramCorruption => self.dram_corruption,
            FaultKind::JitFailure => self.jit_failure,
        };
        r.clamp(0.0, 1.0)
    }

    /// Parses a `loadgen --fault-profile` spec: comma-separated `key=value`
    /// pairs where keys are `seed`, `rate` (applies to every kind), a kind
    /// name / short alias (`transfer`, `launch`, `hang`, `dram`, `jit`),
    /// `outage` (a [`OutageWindow::parse`] spec, repeatable up to
    /// [`MAX_OUTAGES`] times) or `brownout_factor`.
    ///
    /// `"hang=0.05,launch=0.01,seed=7"` arms hangs at 5%, launch failures at
    /// 1% and seeds the stream with 7. `"outage=1@300..600:crash"` crashes
    /// device 1 from t=300µs to t=600µs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown keys, malformed numbers
    /// or rates outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self {
            enabled: true,
            ..Self::disabled()
        };
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-profile entry `{part}` is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            if key == "seed" {
                cfg.seed = value
                    .parse()
                    .map_err(|_| format!("fault-profile seed `{value}` is not an integer"))?;
                continue;
            }
            if key == "outage" {
                cfg.push_outage(OutageWindow::parse(value)?)?;
                continue;
            }
            if key == "brownout_factor" {
                let f: f64 = value.parse().map_err(|_| {
                    format!("fault-profile brownout_factor `{value}` is not a number")
                })?;
                if !f.is_finite() || f < 1.0 {
                    return Err(format!("brownout_factor `{value}` must be >= 1"));
                }
                cfg.brownout_factor = f;
                continue;
            }
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("fault-profile rate `{value}` is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault-profile rate `{value}` outside [0, 1]"));
            }
            match key {
                "rate" => {
                    cfg.transfer_corruption = rate;
                    cfg.launch_failure = rate;
                    cfg.vpp_hang = rate;
                    cfg.dram_corruption = rate;
                    cfg.jit_failure = rate;
                }
                "transfer" | "transfer_corruption" => cfg.transfer_corruption = rate,
                "launch" | "launch_failure" => cfg.launch_failure = rate,
                "hang" | "vpp_hang" => cfg.vpp_hang = rate,
                "dram" | "dram_corruption" => cfg.dram_corruption = rate,
                "jit" | "jit_failure" => cfg.jit_failure = rate,
                other => return Err(format!("unknown fault-profile key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// One injected fault, journaled with its virtual timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time of the draw that fired.
    pub at: SimTime,
    /// What was injected.
    pub kind: FaultKind,
    /// 0-based index of the draw (over *all* draws, fired or not) that
    /// produced this fault — pins the event to a unique point in the stream
    /// even when two faults share a virtual timestamp.
    pub draw: u64,
    /// Device whose profile drew this fault ([`FaultConfig::device`]) — with
    /// one profile per device, journals would otherwise be unattributable.
    pub device: u32,
}

/// Posts one injected fault to the observability layer. Handles for the five
/// kind-specific counters are cached after first resolution.
fn obs_record_injection(kind: FaultKind) {
    if vpps_obs::enabled() {
        static TOTAL: OnceLock<vpps_obs::Counter> = OnceLock::new();
        static PER_KIND: OnceLock<[vpps_obs::Counter; 5]> = OnceLock::new();
        TOTAL
            .get_or_init(|| vpps_obs::counter("fault.injected"))
            .incr();
        PER_KIND.get_or_init(|| {
            FaultKind::ALL.map(|k| vpps_obs::counter(&format!("fault.injected.{}", k.name())))
        })[kind.index()]
        .incr();
    }
}

/// The seeded injector: a splitmix64 draw stream plus the fault journal.
///
/// Each [`FaultProfile::draw`] consumes exactly one value from the stream
/// (whatever the per-kind rate), so which rates are zero never shifts the
/// stream — raising one rate cannot move another kind's faults in time.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    cfg: FaultConfig,
    state: u64,
    draws: u64,
    journal: Vec<FaultEvent>,
    counts: [u64; 5],
}

/// splitmix64 step — the standard 64-bit mix (Steele et al.), more than
/// adequate statistically for Bernoulli fault draws and trivially portable.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultProfile {
    /// Creates an injector from a config. (Callers normally gate on
    /// [`FaultConfig::enabled`] and construct no profile when disabled.)
    pub fn new(cfg: FaultConfig) -> Self {
        // Golden-ratio-spread per-device streams: device 0 keeps the legacy
        // stream bit-for-bit, so single-device runs are unchanged.
        let state = cfg.seed ^ (cfg.device as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Self {
            cfg,
            state,
            draws: 0,
            journal: Vec::new(),
            counts: [0; 5],
        }
    }

    /// The configuration this profile was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Uniform `f64` in `[0, 1)` — one stream step.
    fn next_f64(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One Bernoulli trial for `kind` at virtual time `now`. Always consumes
    /// exactly one stream value; on a hit the fault is journaled, counted and
    /// posted to obs (`fault.injected.<kind>`).
    pub fn draw(&mut self, kind: FaultKind, now: SimTime) -> bool {
        let draw = self.draws;
        self.draws += 1;
        let u = self.next_f64();
        let fired = u < self.cfg.rate(kind);
        if fired {
            self.journal.push(FaultEvent {
                at: now,
                kind,
                draw,
                device: self.cfg.device,
            });
            self.counts[kind.index()] += 1;
            obs_record_injection(kind);
        }
        fired
    }

    /// Deterministic jitter in `[0, max]` nanoseconds for retry backoff —
    /// drawn from the same stream so it is reproducible with the faults.
    pub fn jitter_ns(&mut self, max_ns: f64) -> f64 {
        if max_ns <= 0.0 {
            return 0.0;
        }
        self.next_f64() * max_ns
    }

    /// Every injected fault, in stream order.
    pub fn journal(&self) -> &[FaultEvent] {
        &self.journal
    }

    /// Number of injected faults of one kind.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total injected faults across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total draws consumed (fired or not) — the stream position.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_journal() {
        let cfg = FaultConfig::uniform(42, 0.3);
        let mut a = FaultProfile::new(cfg);
        let mut b = FaultProfile::new(cfg);
        for i in 0..200 {
            let t = SimTime::from_ns(i as f64 * 10.0);
            for &k in &FaultKind::ALL {
                assert_eq!(a.draw(k, t), b.draw(k, t));
            }
        }
        assert_eq!(a.journal(), b.journal());
        assert!(a.total_injected() > 0, "rate 0.3 over 1000 draws must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultProfile::new(FaultConfig::uniform(1, 0.5));
        let mut b = FaultProfile::new(FaultConfig::uniform(2, 0.5));
        let mut same = true;
        for i in 0..64 {
            let t = SimTime::from_ns(i as f64);
            if a.draw(FaultKind::VppHang, t) != b.draw(FaultKind::VppHang, t) {
                same = false;
            }
        }
        assert!(!same, "different seeds must produce different streams");
    }

    #[test]
    fn rate_zero_never_fires_but_consumes_stream() {
        let mut p = FaultProfile::new(FaultConfig::uniform(7, 0.0));
        for i in 0..100 {
            assert!(!p.draw(FaultKind::DramCorruption, SimTime::from_ns(i as f64)));
        }
        assert_eq!(p.total_injected(), 0);
        assert!(p.journal().is_empty());
        assert_eq!(p.draws(), 100);
    }

    #[test]
    fn zero_rates_do_not_shift_other_kinds() {
        // The hang-fault positions must be identical whether or not the other
        // kinds' rates are zero: one draw per call, always.
        let mut only_hang = FaultProfile::new(FaultConfig {
            vpp_hang: 0.4,
            ..FaultConfig::uniform(9, 0.0)
        });
        let mut all = FaultProfile::new(FaultConfig {
            vpp_hang: 0.4,
            ..FaultConfig::uniform(9, 0.9)
        });
        let mut hangs_a = Vec::new();
        let mut hangs_b = Vec::new();
        for i in 0..100 {
            let t = SimTime::from_ns(i as f64);
            for &k in &FaultKind::ALL {
                let fa = only_hang.draw(k, t);
                let fb = all.draw(k, t);
                if k == FaultKind::VppHang {
                    hangs_a.push(fa);
                    hangs_b.push(fb);
                }
            }
        }
        assert_eq!(hangs_a, hangs_b);
    }

    #[test]
    fn rate_one_always_fires() {
        let mut p = FaultProfile::new(FaultConfig::uniform(3, 1.0));
        for &k in &FaultKind::ALL {
            assert!(p.draw(k, SimTime::ZERO));
        }
        assert_eq!(p.total_injected(), 5);
        assert_eq!(p.journal().len(), 5);
    }

    #[test]
    fn journal_records_timestamp_kind_and_draw_index() {
        let mut p = FaultProfile::new(FaultConfig::uniform(5, 1.0));
        p.draw(FaultKind::LaunchFailure, SimTime::from_us(3.0));
        p.draw(FaultKind::VppHang, SimTime::from_us(4.0));
        let j = p.journal();
        assert_eq!(j.len(), 2);
        assert_eq!(j[0].kind, FaultKind::LaunchFailure);
        assert_eq!(j[0].at, SimTime::from_us(3.0));
        assert_eq!(j[0].draw, 0);
        assert_eq!(j[1].kind, FaultKind::VppHang);
        assert_eq!(j[1].draw, 1);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = FaultProfile::new(FaultConfig::uniform(11, 0.0));
        let mut b = FaultProfile::new(FaultConfig::uniform(11, 0.0));
        for _ in 0..50 {
            let ja = a.jitter_ns(1000.0);
            assert!((0.0..=1000.0).contains(&ja));
            assert_eq!(ja, b.jitter_ns(1000.0));
        }
        assert_eq!(a.jitter_ns(0.0), 0.0);
    }

    #[test]
    fn parse_spec_roundtrip() {
        let cfg = FaultConfig::parse("hang=0.05,launch=0.01,seed=7").unwrap();
        assert!(cfg.enabled);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.rate(FaultKind::VppHang), 0.05);
        assert_eq!(cfg.rate(FaultKind::LaunchFailure), 0.01);
        assert_eq!(cfg.rate(FaultKind::DramCorruption), 0.0);

        let uniform = FaultConfig::parse("rate=0.1,seed=3").unwrap();
        for &k in &FaultKind::ALL {
            assert_eq!(uniform.rate(k), 0.1);
        }

        assert!(FaultConfig::parse("bogus=1").is_err());
        assert!(FaultConfig::parse("hang=2.0").is_err());
        assert!(FaultConfig::parse("hang").is_err());
        assert!(FaultConfig::parse("seed=x").is_err());
    }

    #[test]
    fn parse_outage_spec() {
        let cfg = FaultConfig::parse("outage=1@300..600:hang,seed=9").unwrap();
        let windows: Vec<_> = cfg.outage_windows().collect();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].device, 1);
        assert_eq!(windows[0].kind, OutageKind::Hang);
        assert_eq!(windows[0].start, SimTime::from_us(300.0));
        assert_eq!(windows[0].end, SimTime::from_us(600.0));
        assert!(cfg.has_outages());

        // Default kind is crash; multiple windows fill successive slots.
        let multi = FaultConfig::parse("outage=0@10..20,outage=2@30..40:brownout").unwrap();
        let w: Vec<_> = multi.outage_windows().collect();
        assert_eq!(w[0].kind, OutageKind::Crash);
        assert_eq!(w[1].device, 2);
        assert_eq!(w[1].kind, OutageKind::Brownout);

        let bf = FaultConfig::parse("brownout_factor=2.5").unwrap();
        assert_eq!(bf.brownout_factor, 2.5);

        assert!(FaultConfig::parse("outage=1@600..300").is_err());
        assert!(FaultConfig::parse("outage=1@NaN..300").is_err());
        assert!(FaultConfig::parse("outage=1@0..inf").is_err());
        assert!(FaultConfig::parse("outage=1@0..1e306").is_err());
        assert!(FaultConfig::parse("outage=1@300..600:melt").is_err());
        assert!(FaultConfig::parse("outage=x@1..2").is_err());
        assert!(FaultConfig::parse("outage=1&1..2").is_err());
        assert!(FaultConfig::parse("brownout_factor=0.5").is_err());
        let too_many = "outage=0@1..2,outage=0@3..4,outage=0@5..6,outage=0@7..8,outage=0@9..10";
        assert!(FaultConfig::parse(too_many).is_err());
        assert!(!FaultConfig::parse("rate=0.1").unwrap().has_outages());
    }

    #[test]
    fn per_device_streams_are_disjoint_and_device0_is_legacy() {
        // Device 0 must reproduce the un-tagged stream bit-for-bit.
        let legacy = FaultConfig::uniform(42, 0.3);
        assert_eq!(legacy.device, 0);
        let mut base = FaultProfile::new(legacy);
        let mut dev0 = FaultProfile::new(FaultConfig {
            device: 0,
            ..legacy
        });
        let mut dev1 = FaultProfile::new(FaultConfig {
            device: 1,
            ..legacy
        });
        let mut diverged = false;
        for i in 0..200 {
            let t = SimTime::from_ns(i as f64);
            let a = base.draw(FaultKind::VppHang, t);
            assert_eq!(a, dev0.draw(FaultKind::VppHang, t));
            if a != dev1.draw(FaultKind::VppHang, t) {
                diverged = true;
            }
        }
        assert!(diverged, "device 1 stream must differ from device 0");
        assert!(dev0.journal().iter().all(|e| e.device == 0));
        assert!(dev1.journal().iter().all(|e| e.device == 1));

        // Seed-stable: rebuilding the device-1 profile replays its journal.
        let mut replay = FaultProfile::new(FaultConfig {
            device: 1,
            ..legacy
        });
        for i in 0..200 {
            replay.draw(FaultKind::VppHang, SimTime::from_ns(i as f64));
        }
        assert_eq!(replay.journal(), dev1.journal());
    }

    #[test]
    fn display_names_are_snake_case() {
        for &k in &FaultKind::ALL {
            let n = k.name();
            assert_eq!(n, format!("{k}"));
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{n}");
        }
    }
}
