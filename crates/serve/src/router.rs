//! Plan-affinity batch placement with bounded work stealing.
//!
//! The router decides which [`crate::Device`] runs each formed batch. Its
//! goal is to keep the lowered-artifact caches hot: a bucket that executed
//! on device *d* before has a warm plan and script cache *on d only*, so
//! sending it anywhere else pays a cold lowering pass. Placement therefore
//! prefers the bucket's **affinity device** (where it last ran) and moves
//! the batch — a *steal* — only when the affinity device's backlog exceeds
//! the least-loaded device's backlog by more than
//! [`crate::ShardPolicy::steal_margin`], i.e. when the queueing delay saved
//! clearly outweighs the re-lowering cost.
//!
//! All decisions are pure functions of (bucket key, device backlogs, the
//! affinity map), and ties break toward the lowest device id, so routing is
//! deterministic for a given request trace and device count.

use std::collections::BTreeMap;

use gpu_sim::SimTime;

use crate::batcher::BucketKey;
use crate::device::{Device, DeviceHealth, DeviceId};

/// Routing tallies, for reports and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Batches routed in total.
    pub routed: u64,
    /// First-seen buckets placed on the least-loaded device.
    pub placements: u64,
    /// Batches sent to their warm affinity device.
    pub affinity_hits: u64,
    /// Batches stolen away from an overloaded affinity device.
    pub steals: u64,
    /// Buckets whose affinity was forced off a non-serving (draining, down
    /// or probation-busy) device.
    pub rehomes: u64,
    /// Re-homes that landed on a device without warm lowered state for the
    /// bucket — each pays exactly one cold lowering pass there, after which
    /// the bucket is warm on its new home.
    pub cold_rebuilds: u64,
}

/// Which branch the router took for one batch — recorded into request
/// traces so steals/re-homes are visible on every member's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// First-seen bucket, placed on the least-loaded device.
    Placement,
    /// Sent to the bucket's warm affinity device.
    Affinity,
    /// Stolen away from an overloaded affinity device (and re-homed).
    Steal,
    /// Forced off an unavailable affinity device (failed, draining or on
    /// busy probation) onto the best survivor.
    Rehome,
}

impl RouteDecision {
    /// Stable lower-case name (used in traces and Chrome views).
    pub fn name(self) -> &'static str {
        match self {
            RouteDecision::Placement => "placement",
            RouteDecision::Affinity => "affinity",
            RouteDecision::Steal => "steal",
            RouteDecision::Rehome => "rehome",
        }
    }
}

/// Deterministic plan-affinity router. See the module docs.
#[derive(Debug, Default)]
pub struct Router {
    affinity: BTreeMap<BucketKey, DeviceId>,
    stats: RouterStats,
}

impl Router {
    /// Picks the device for one formed batch and updates the tallies,
    /// reporting which branch was taken.
    ///
    /// A steal *re-homes* the bucket: the thief lowers the bucket's scripts
    /// once and every later batch of that bucket hits its warm cache, so a
    /// migrated hot bucket pays one cold pass instead of scattering cold
    /// lookups across the fleet on every steal. Steals are also
    /// *cache-aware*: among the candidate thieves, a device that has run
    /// this bucket before (warm scripts) wins over the globally
    /// least-loaded one as long as its backlog is within `steal_margin` of
    /// the minimum, so repeat migrations bounce between warm replicas
    /// instead of paying a fresh lowering pass each time.
    pub fn route(
        &mut self,
        key: BucketKey,
        now: SimTime,
        steal_margin: SimTime,
        devices: &[Device],
    ) -> (DeviceId, RouteDecision) {
        debug_assert!(!devices.is_empty());
        self.stats.routed += 1;
        let least = Self::least_loaded(devices, now);
        match self.affinity.get(&key).copied() {
            None => {
                self.affinity.insert(key, least);
                self.stats.placements += 1;
                (least, RouteDecision::Placement)
            }
            Some(home) => {
                // A healthy or degraded home keeps serving its own buckets
                // (a degraded device is slow, not gone — steals drain it
                // naturally as its backlog grows). A reviving home gets its
                // affinity batches only while idle: that is the probation
                // ramp. A draining/down home forces a re-home.
                let home_available = match devices[home.0].health() {
                    DeviceHealth::Healthy | DeviceHealth::Degraded => true,
                    DeviceHealth::Reviving => devices[home.0].is_idle(),
                    DeviceHealth::Draining | DeviceHealth::Down => false,
                };
                if !home_available {
                    let target = self.rehome_target(&key, now, steal_margin, devices);
                    self.stats.rehomes += 1;
                    if !devices[target.0].has_warm(&key) {
                        self.stats.cold_rebuilds += 1;
                    }
                    self.affinity.insert(key, target);
                    return (target, RouteDecision::Rehome);
                }
                let home_backlog = devices[home.0].backlog(now);
                let least_backlog = devices[least.0].backlog(now);
                if Self::admittable(&devices[least.0])
                    && home_backlog.as_ns() > (least_backlog + steal_margin).as_ns()
                {
                    let target = Self::min_by_backlog(
                        devices
                            .iter()
                            .filter(|d| d.id() != home && Self::admittable(d) && d.has_warm(&key)),
                        now,
                    )
                    .filter(|warm| {
                        devices[warm.0].backlog(now).as_ns()
                            <= (least_backlog + steal_margin).as_ns()
                    })
                    .unwrap_or(least);
                    self.stats.steals += 1;
                    self.affinity.insert(key, target);
                    (target, RouteDecision::Steal)
                } else {
                    self.stats.affinity_hits += 1;
                    (home, RouteDecision::Affinity)
                }
            }
        }
    }

    /// `true` if routing may send *new* work to this device: healthy, or
    /// reviving-and-idle (the bounded probation admission — one batch at a
    /// time until the device earns `Healthy` back).
    fn admittable(d: &Device) -> bool {
        match d.health() {
            DeviceHealth::Healthy => true,
            DeviceHealth::Reviving => d.is_idle(),
            DeviceHealth::Degraded | DeviceHealth::Draining | DeviceHealth::Down => false,
        }
    }

    /// Fallback preference when no device is admittable: least-bad health
    /// class first, so a batch lands on a reviving or degraded device before
    /// it is ever parked on a draining or down one.
    fn health_rank(h: DeviceHealth) -> u8 {
        match h {
            DeviceHealth::Healthy => 0,
            DeviceHealth::Reviving => 1,
            DeviceHealth::Degraded => 2,
            DeviceHealth::Draining => 3,
            DeviceHealth::Down => 4,
        }
    }

    fn min_by_backlog<'a>(
        iter: impl Iterator<Item = &'a Device>,
        now: SimTime,
    ) -> Option<DeviceId> {
        // A backlog is a finite, sign-positive span, so `total_cmp` is the
        // numeric order.
        iter.min_by(|a, b| {
            let (a_ns, b_ns) = (a.backlog(now).as_ns(), b.backlog(now).as_ns());
            a_ns.total_cmp(&b_ns).then(a.id().cmp(&b.id()))
        })
        .map(Device::id)
    }

    /// Least-loaded admittable device; if the whole fleet is impaired, the
    /// least-bad one by (health class, backlog, id) — a batch must land
    /// somewhere, and parking it on a reviving device beats a down one.
    fn least_loaded(devices: &[Device], now: SimTime) -> DeviceId {
        if let Some(id) = Self::min_by_backlog(devices.iter().filter(|d| Self::admittable(d)), now)
        {
            return id;
        }
        let least_bad = devices.iter().min_by(|a, b| {
            let (a_ns, b_ns) = (a.backlog(now).as_ns(), b.backlog(now).as_ns());
            Self::health_rank(a.health())
                .cmp(&Self::health_rank(b.health()))
                .then(a_ns.total_cmp(&b_ns))
                .then(a.id().cmp(&b.id()))
        });
        // Unreachable because `Server::new` refuses a fleet of zero devices.
        least_bad.expect("at least one device").id()
    }

    /// Picks the new home for a bucket forced off an unavailable device:
    /// a warm admittable survivor within `steal_margin` of the minimum
    /// backlog if one exists (no cold pass), else the least-loaded
    /// admittable device (one counted cold lowering).
    fn rehome_target(
        &self,
        key: &BucketKey,
        now: SimTime,
        steal_margin: SimTime,
        devices: &[Device],
    ) -> DeviceId {
        let least = Self::least_loaded(devices, now);
        let least_backlog = devices[least.0].backlog(now);
        Self::min_by_backlog(
            devices
                .iter()
                .filter(|d| Self::admittable(d) && d.has_warm(key)),
            now,
        )
        .filter(|warm| {
            devices[warm.0].backlog(now).as_ns() <= (least_backlog + steal_margin).as_ns()
        })
        .unwrap_or(least)
    }

    /// Routing tallies so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }
}
