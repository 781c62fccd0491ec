//! On-disk kernel cache (paper §IV-F).
//!
//! The paper suggests "having a database for compiled kernels in a
//! non-volatile memory such as disk or SSD", noting that NVRTC binaries
//! cannot be serialized — "only intermediate PTX can be stored". This cache
//! implements exactly that contract: it persists the *generated source*
//! (our PTX analogue) keyed by everything that determines the
//! specialization — parameter shapes, device geometry and rows-per-warp.
//! A cache hit skips the expensive program-compilation stage; the
//! PTX-to-binary module load must still be paid, just as on real hardware.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dyn_graph::Model;
use gpu_sim::{DeviceConfig, SimTime};

use crate::error::VppsError;
use crate::specialize::{JitCost, KernelPlan, PlanSignature};

/// A directory-backed kernel cache.
#[derive(Debug, Clone)]
pub struct PlanCache {
    dir: PathBuf,
}

impl PlanCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// The cache key for a `(model shapes, device, rpw)` specialization —
    /// the [`PlanSignature`]'s cache key, so the on-disk cache and every
    /// other consumer of plan identity (batch bucketing in `vpps-serve`,
    /// cache-hit accounting) agree by construction.
    pub fn key(model: &Model, device: &DeviceConfig, rpw: usize) -> String {
        PlanSignature::derive(model, device, rpw).cache_key()
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ptx"))
    }

    /// `true` if a kernel for this specialization is cached.
    pub fn contains(&self, model: &Model, device: &DeviceConfig, rpw: usize) -> bool {
        self.path_for(&Self::key(model, device, rpw)).is_file()
    }

    /// Builds a plan, consulting the cache: on a hit the modeled
    /// program-compilation cost drops to zero (only the module load
    /// remains); on a miss the plan is built normally and its source stored.
    ///
    /// Returns the plan and whether the cache hit.
    ///
    /// # Errors
    ///
    /// Only plan-construction failures ([`KernelPlan::build`]'s). The cache
    /// is a best-effort kernel database, so no filesystem condition is an
    /// error: an entry that cannot be read as the source this specialization
    /// generates — missing, truncated, stale, not UTF-8, a directory — is a
    /// miss that the store below overwrites, and a store that fails leaves
    /// the cache cold and the plan returned.
    pub fn build(
        &self,
        model: &Model,
        device: &DeviceConfig,
        rpw: usize,
    ) -> Result<(KernelPlan, bool), VppsError> {
        let key = Self::key(model, device, rpw);
        let path = self.path_for(&key);
        let plan = KernelPlan::build(model, device, rpw)?;
        // Validate the stored source actually matches this specialization
        // (defends against hash collisions and stale format changes);
        // mismatches are treated as misses.
        if fs::read_to_string(&path).is_ok_and(|stored| stored == plan.source().text()) {
            vpps_obs::counter("specialize.cache_hit").incr();
            return Ok((plan.with_cached_compile(), true));
        }
        // Best-effort store; failures leave the cache cold but harmless.
        let _ = fs::write(&path, plan.source().text());
        vpps_obs::counter("specialize.cache_miss").incr();
        Ok((plan, false))
    }

    /// Number of cached kernels: the `*.ptx` files of the directory, not
    /// whatever else sits in it.
    pub fn len(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "ptx") && p.is_file())
            .count()
    }

    /// `true` if the cache holds no kernels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl KernelPlan {
    /// Marks this plan's program compilation as already paid (cache hit):
    /// only the PTX→binary module load remains, per the paper's
    /// serialization constraint.
    pub fn with_cached_compile(mut self) -> Self {
        let jit = self.jit_cost();
        self.set_jit_cost(JitCost {
            program_compile: SimTime::ZERO,
            module_load: jit.module_load,
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(hidden: usize) -> Model {
        let mut m = Model::new(3);
        m.add_matrix("W1", hidden, hidden);
        m.add_matrix("W2", hidden, hidden);
        m
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vpps-plan-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn first_build_misses_second_hits() {
        let cache = PlanCache::open(tmpdir("hit")).unwrap();
        let m = model(64);
        let dev = DeviceConfig::titan_v();
        let (p1, hit1) = cache.build(&m, &dev, 1).unwrap();
        assert!(!hit1);
        assert!(p1.jit_cost().program_compile.as_secs() > 0.0);
        let (p2, hit2) = cache.build(&m, &dev, 1).unwrap();
        assert!(hit2);
        assert_eq!(p2.jit_cost().program_compile, SimTime::ZERO);
        // The module load is still paid, per the PTX-only constraint.
        assert!(p2.jit_cost().module_load.as_secs() > 0.0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_specializations_get_different_keys() {
        let dev = DeviceConfig::titan_v();
        let k1 = PlanCache::key(&model(64), &dev, 1);
        let k2 = PlanCache::key(&model(96), &dev, 1);
        let k3 = PlanCache::key(&model(64), &dev, 2);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        let k4 = PlanCache::key(&model(64), &DeviceConfig::pascal_small(), 1);
        assert_ne!(k1, k4);
    }

    #[test]
    fn stale_entries_are_treated_as_misses() {
        let cache = PlanCache::open(tmpdir("stale")).unwrap();
        let m = model(64);
        let dev = DeviceConfig::titan_v();
        let path = cache.path_for(&PlanCache::key(&m, &dev, 1));
        fs::write(cache.dir.join("notes.txt"), "not a kernel").unwrap();
        let stale: [&[u8]; 2] = [b"not the right source", &[0xff, 0xfe, 0x00]];
        for bytes in stale {
            fs::write(&path, bytes).unwrap();
            let (_, hit) = cache.build(&m, &dev, 1).unwrap();
            assert!(!hit, "corrupted entry {bytes:?} must not hit");
            // And the entry is repaired for next time.
            let (_, hit2) = cache.build(&m, &dev, 1).unwrap();
            assert!(hit2);
            assert_eq!(cache.len(), 1, "the stray notes.txt is no kernel");
        }
        // A directory squatting on the entry's path cannot be repaired: every
        // build misses, none panics, and nothing counts as cached.
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        for _ in 0..2 {
            let (_, hit) = cache.build(&m, &dev, 1).unwrap();
            assert!(!hit, "a directory is no kernel");
        }
        assert!(!cache.contains(&m, &dev, 1));
        assert!(cache.is_empty());
    }

    #[test]
    fn plans_from_cache_are_functionally_identical() {
        let cache = PlanCache::open(tmpdir("ident")).unwrap();
        let m = model(64);
        let dev = DeviceConfig::titan_v();
        let (p1, _) = cache.build(&m, &dev, 1).unwrap();
        let (p2, _) = cache.build(&m, &dev, 1).unwrap();
        assert_eq!(
            p1.distribution().used_slots(),
            p2.distribution().used_slots()
        );
        assert_eq!(p1.ctas_per_sm(), p2.ctas_per_sm());
        assert_eq!(p1.source().text(), p2.source().text());
    }
}
