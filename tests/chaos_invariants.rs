//! Invariants of the fault-injection and recovery layer:
//!
//! * a faulted batch always ends in a value: certain faults of any kind walk
//!   the whole ladder down to the launch-per-op baseline rung, which cannot
//!   fault — no panic, no error, and the virtual clock stays finite and
//!   monotone;
//! * the watchdog kills every hung attempt, and no faulted attempt — hung or
//!   ECC-flagged — changes a parameter or a lookup table;
//! * a plan whose fault count crosses the quarantine threshold is re-JITted
//!   **exactly once**, no matter how many more batches fault afterwards;
//! * when recovery succeeds without ever reaching the baseline
//!   (launch-per-op) rung, the recovered losses and parameters are
//!   bit-identical to a fault-free run of the same trace — retries and the
//!   interpreter rungs of the ladder are bit-exact re-executions;
//! * fault journals attribute every event to the device whose stream drew
//!   it: per-device journals are disjoint, decorrelated, and seed-stable,
//!   and device 0 reproduces the single-device stream exactly.

use dyn_graph::{Graph, Model, Trainer};
use gpu_sim::SimTime;
use vpps::engine::recovery::{degraded, MAX_ATTEMPTS};
use vpps::{BackendKind, FaultConfig, FaultKind, Handle, RpwMode, VppsOptions};

#[path = "support/graphgen.rs"]
#[allow(dead_code)] // `arb_recipe` is used by the sibling suites only.
mod graphgen;
use graphgen::{build_from_recipe, grow_recipe, small_device, GraphRecipe, DIM};

fn tiny_model() -> Model {
    let mut model = Model::new(987);
    model.add_matrix("W1", DIM, DIM);
    model.add_matrix("W2", DIM, DIM);
    model.add_bias("b", DIM);
    model
}

/// A deterministic graph recipe; `variant` perturbs the op sequence so a
/// multi-batch trace sees distinct graph shapes.
fn fixed_recipe(variant: u8) -> GraphRecipe {
    GraphRecipe {
        ops: vec![0, 3, 1, 2, 4, 6, variant % 8, 5, 7, 2],
        picks: (0..30).map(|i| i * 7 + variant).collect(),
        label: (variant % 4),
    }
}

/// Learning rate of every [`handle_on`] handle.
const LEARNING_RATE: f32 = 0.05;

fn handle_on(model: &Model, backend: BackendKind, faults: FaultConfig) -> Handle {
    let opts = VppsOptions {
        rpw: RpwMode::Fixed(1),
        learning_rate: LEARNING_RATE,
        weight_decay: 0.0,
        pool_capacity: 1 << 18,
        backend,
        faults,
        ..VppsOptions::default()
    };
    Handle::new(model, small_device(), opts).expect("tiny model fits")
}

/// The backend rungs of the ladder a handle on `backend` walks before the
/// baseline rung.
fn rungs(backend: BackendKind) -> u64 {
    std::iter::successors(Some(backend), |&b| degraded(b)).count() as u64
}

/// Every certain-fault configuration, on either backend, ends on the
/// launch-per-op baseline rung: a training step and an inference dispatch
/// both return `Ok` after `MAX_ATTEMPTS` faulted attempts per backend rung,
/// and the virtual clock advances finitely.
#[test]
fn certain_faults_end_on_the_baseline_rung() {
    let cases: [(&str, FaultKind); 4] = [
        ("transfer=1.0", FaultKind::TransferCorruption),
        ("launch=1.0", FaultKind::LaunchFailure),
        ("hang=1.0", FaultKind::VppHang),
        ("dram=1.0", FaultKind::DramCorruption),
    ];
    for (spec, kind) in cases {
        for backend in BackendKind::ALL {
            let case = format!("{spec} on {}", backend.name());
            let mut model = tiny_model();
            let faults = FaultConfig::parse(&format!("seed=3,{spec}")).expect("valid spec");
            let mut handle = handle_on(&model, backend, faults);
            let per_batch = u64::from(MAX_ATTEMPTS) * rungs(backend);
            let (g, loss) = build_from_recipe(&model, &fixed_recipe(1));
            let mut clock = handle.wall_time();
            for (batch, train) in [(1, true), (2, false)] {
                let result = if train {
                    handle.try_fb(&mut model, &g, loss).map(drop)
                } else {
                    handle
                        .dispatch(&model, &g, &[loss], false)
                        .map(|c| drop(handle.join(c.run(&mut model, &g, &[loss]))))
                };
                assert!(result.is_ok(), "{case}: batch {batch}: {result:?}");
                let stats = handle.recovery_stats();
                assert_eq!(stats.baseline_fallbacks, batch, "{case}");
                let injected = handle.fault_profile().expect("armed").injected(kind);
                assert_eq!(injected, batch * per_batch, "{case}");
                let now = handle.wall_time();
                assert!(now > clock, "{case}: a faulted batch must consume time");
                assert!(now.as_ns().is_finite(), "{case}: clock stays finite");
                clock = now;
            }
        }
    }
}

/// Every faulted attempt is counted and leaves nothing behind, whether it
/// hung and the watchdog killed it or it ran to the end and ECC flagged it:
/// on either backend, a training step whose every attempt faults ends on
/// the baseline rung with the parameters and lookup tables bit for bit
/// those of one host-reference step from where they were before the batch.
#[test]
fn watchdog_counts_and_rolls_back_every_hung_attempt() {
    let bits = |model: &Model| -> Vec<u32> {
        let params = model
            .params()
            .flat_map(|(_, p)| p.value.as_slice().to_vec());
        let tables = model
            .lookups()
            .flat_map(|(_, l)| l.table.as_slice().to_vec());
        params.chain(tables).map(f32::to_bits).collect()
    };
    for (spec, hangs) in [("seed=5,hang=1.0", true), ("seed=5,dram=1.0", false)] {
        for backend in BackendKind::ALL {
            let case = format!("{spec} on {}", backend.name());
            let mut model = tiny_model();
            let table = model.add_lookup("E", 5, DIM);
            let mut reference = model.clone();
            let faults = FaultConfig::parse(spec).expect("valid spec");
            let mut handle = handle_on(&model, backend, faults);
            let mut g = Graph::new();
            let x = g.input(vec![0.25; DIM]);
            let e = g.lookup(&model, table, 3);
            let loss = grow_recipe(&mut g, &model, &fixed_recipe(2), vec![x, e], 1);
            handle
                .try_fb(&mut model, &g, loss)
                .expect("the baseline rung absorbs certain faults");
            dyn_graph::exec::forward_backward(&g, &mut reference, loss);
            Trainer::new(LEARNING_RATE).update(&mut reference);
            let attempts = u64::from(MAX_ATTEMPTS) * rungs(backend);
            let stats = handle.recovery_stats();
            assert_eq!(stats.baseline_fallbacks, 1, "{case}");
            let timeouts = if hangs { attempts } else { 0 };
            assert_eq!(stats.watchdog_timeouts, timeouts, "{case}");
            assert_eq!(stats.rollbacks, attempts, "{case}");
            assert_eq!(
                stats.retries,
                u64::from(MAX_ATTEMPTS - 1) * rungs(backend),
                "{case}"
            );
            assert!(
                bits(&model) == bits(&reference),
                "{case}: a faulted attempt changed a parameter or a table"
            );
        }
    }
}

/// A quarantined plan is evicted and re-JITted exactly once: later faults on
/// the same (rebuilt) plan do not trigger repeated re-specialization.
#[test]
fn quarantined_plan_is_rejitted_exactly_once() {
    let mut model = tiny_model();
    let faults = FaultConfig::parse("seed=11,dram=1.0").expect("valid spec");
    let mut handle = handle_on(&model, BackendKind::EventInterp, faults);
    for variant in 0..3u8 {
        let (g, loss) = build_from_recipe(&model, &fixed_recipe(variant));
        // Even a certain fault rate recovers: the baseline launch-per-op
        // rung is fault-free by construction.
        handle
            .try_fb(&mut model, &g, loss)
            .expect("baseline rung absorbs certain faults");
    }
    let stats = handle.recovery_stats();
    assert_eq!(stats.quarantines, 1, "one quarantine at the threshold");
    assert_eq!(stats.rejits, 1, "re-JITted exactly once, not per batch");
    assert_eq!(stats.baseline_fallbacks, 3, "every batch ended on baseline");
    assert!(
        handle
            .fault_profile()
            .expect("armed")
            .injected(FaultKind::DramCorruption)
            > 0,
        "dram faults are journaled"
    );
}

/// When the recovery ladder succeeds without ever touching the baseline
/// rung, the recovered losses and final parameters are bit-identical to a
/// fault-free run: the retry and interpreter-fallback rungs re-execute
/// exactly. Two fault profiles: every kind at a moderate rate, and DRAM
/// corruption alone — the fault detected only after a full run, whose
/// attempt must compute nothing the retry could see.
#[test]
fn non_baseline_recovery_is_bit_identical_to_fault_free() {
    let trace = |faults: FaultConfig| -> (Vec<u32>, Vec<u32>, Handle) {
        let mut model = tiny_model();
        // The Lowered backend gives two bit-exact rungs (Lowered, then
        // EventInterp) before the fp-close baseline, so a moderate fault
        // rate recovers without ever leaving bit-exact territory.
        let mut handle = handle_on(&model, BackendKind::Lowered, faults);
        let mut losses = Vec::new();
        for variant in 0..6u8 {
            let (g, loss) = build_from_recipe(&model, &fixed_recipe(variant));
            handle
                .try_fb(&mut model, &g, loss)
                .expect("ladder absorbs moderate fault rates");
            losses.push(handle.sync_get_latest_loss().to_bits());
        }
        let params = model
            .params()
            .flat_map(|(_, p)| p.value.as_slice().iter().map(|v| v.to_bits()))
            .collect();
        (losses, params, handle)
    };
    let (clean_losses, clean_params, clean) = trace(FaultConfig::disabled());
    assert_eq!(clean.recovery_stats(), vpps::RecoveryStats::default());
    let mut every_kind = FaultConfig::uniform(23, 0.1);
    every_kind.jit_failure = 0.0; // keep re-JIT deterministic in this trace
    let dram_only = FaultConfig::parse("seed=7,dram=0.3").expect("valid spec");
    for (faults, kind) in [
        (every_kind, None),
        (dram_only, Some(FaultKind::DramCorruption)),
    ] {
        let (losses, params, handle) = trace(faults);
        let stats = handle.recovery_stats();
        let profile = handle.fault_profile().expect("armed");
        let injected = kind.map_or(profile.total_injected(), |k| profile.injected(k));
        assert!(
            stats.retries > 0 && injected > 0,
            "premise: the fault rate must actually bite ({kind:?}): {stats:?}"
        );
        assert_eq!(
            stats.baseline_fallbacks, 0,
            "premise: recovery stayed on bit-exact rungs (retune the seed/rate \
             if this starts failing)"
        );
        assert_eq!(
            clean_losses, losses,
            "recovery via retries and interpreter rungs must be bit-exact"
        );
        assert!(
            clean_params == params,
            "recovered training must end on the fault-free parameters"
        );
    }
}

/// Per-device fault journals are correctly attributed, mutually disjoint in
/// the stream sense (sibling devices draw decorrelated sequences from the
/// shared seed, they never replay each other), and seed-stable: rebuilding
/// a profile replays its journal event-for-event, and device 0 is exactly
/// the legacy single-device stream.
#[test]
fn per_device_fault_journals_are_disjoint_and_seed_stable() {
    use vpps::{FaultEvent, FaultProfile};

    let replay = |device: u32| -> Vec<FaultEvent> {
        let mut cfg = FaultConfig::uniform(17, 0.3);
        cfg.device = device;
        let mut p = FaultProfile::new(cfg);
        // One identical draw schedule for every device, so any difference
        // between journals comes from the stream, not the usage.
        for i in 0..200u64 {
            let now = SimTime::from_us(i as f64);
            for kind in [
                FaultKind::TransferCorruption,
                FaultKind::LaunchFailure,
                FaultKind::VppHang,
                FaultKind::DramCorruption,
            ] {
                p.draw(kind, now);
            }
        }
        p.journal().to_vec()
    };

    let journals: Vec<Vec<FaultEvent>> = (0..4).map(replay).collect();
    for (device, journal) in journals.iter().enumerate() {
        assert!(
            !journal.is_empty(),
            "rate 0.3 over 800 draws must fire on device {device}"
        );
        for ev in journal {
            assert_eq!(
                ev.device, device as u32,
                "journal of device {device} holds a foreign event {ev:?}"
            );
        }
        // Seed stability: an identical rebuild replays the exact journal.
        assert_eq!(
            journal,
            &replay(device as u32),
            "device {device} journal is not seed-stable"
        );
    }
    for a in 0..journals.len() {
        for b in a + 1..journals.len() {
            let fired = |j: &[FaultEvent]| -> Vec<(u64, FaultKind)> {
                j.iter().map(|e| (e.draw, e.kind)).collect()
            };
            assert_ne!(
                fired(&journals[a]),
                fired(&journals[b]),
                "devices {a} and {b} drew identical fault streams from one seed"
            );
        }
    }
    // Legacy equivalence: an un-tagged config is device 0's stream.
    let legacy = FaultConfig::uniform(17, 0.3);
    assert_eq!(legacy.device, 0, "default configs target device 0");
}

/// The sharded serving path preserves the attribution: with one profile
/// armed per device, every journal the server exposes is tagged with its
/// own device, and a same-seed rerun reproduces all of them byte-for-byte.
/// The fleet tallies add up over the same devices: faults drawn anywhere in
/// the fleet show up as recovery activity in `recovery_stats`, also when
/// device 0 drew none.
#[test]
fn sharded_fault_journals_stay_attributed_and_reproducible() {
    use vpps_serve::{ModelId, Request, RequestKind, ServeConfig, Server, TenantId};

    let run = |faults: FaultConfig| -> (Server, ModelId) {
        let model = tiny_model();
        let mut cfg = ServeConfig {
            device: small_device(),
            ..ServeConfig::default()
        };
        cfg.opts.pool_capacity = 1 << 18;
        cfg.opts.faults = faults;
        cfg.shard.devices = 3;
        let mut server = Server::new(cfg);
        let mid = server.register_model("tiny", model.clone()).expect("fits");
        let mut clock = SimTime::ZERO;
        for i in 0..24u8 {
            clock += SimTime::from_us(40.0);
            let (graph, root) = build_from_recipe(&model, &fixed_recipe(i));
            server.submit(Request {
                tenant: TenantId(0),
                model: mid,
                kind: RequestKind::Infer,
                graph,
                root,
                arrival: clock,
                deadline: None,
            });
        }
        server.drain();
        (server, mid)
    };

    let uniform = FaultConfig::uniform(29, 0.05);
    let (server, mid) = run(uniform);
    let (server2, mid2) = run(uniform);
    let mut fired_any = false;
    for d in 0..3 {
        let journal = server
            .fault_profile_on(mid, d)
            .expect("profile armed on every device")
            .journal();
        for ev in journal {
            assert_eq!(
                ev.device, d as u32,
                "device {d} journal holds a foreign event {ev:?}"
            );
        }
        fired_any |= !journal.is_empty();
        let journal2 = server2
            .fault_profile_on(mid2, d)
            .expect("profile armed on every device")
            .journal();
        assert_eq!(journal, journal2, "device {d} journal is not seed-stable");
    }
    assert!(fired_any, "rate 0.05 over 24 batches should fire somewhere");

    // A transfer-only profile whose seed leaves device 0's stream silent
    // while devices 1 and 2 draw faults: every one of them costs its handle
    // a retry or a fallback, and the fleet-wide tallies must say so.
    let (server, mid) = run(FaultConfig {
        transfer_corruption: 0.02,
        ..FaultConfig::uniform(12, 0.0)
    });
    let journal_len = |d| {
        server
            .fault_profile_on(mid, d)
            .map_or(0, |p| p.journal().len())
    };
    assert_eq!(journal_len(0), 0, "seed 12 keeps device 0 fault-free");
    assert!(
        journal_len(1) + journal_len(2) > 0,
        "seed 12 faults elsewhere"
    );
    assert!(server.faults_injected(mid) > 0);
    let recovery = server.recovery_stats(mid);
    assert!(
        recovery.retries + recovery.backend_fallbacks + recovery.baseline_fallbacks > 0,
        "faults were injected but the fleet reports no recovery: {recovery:?}"
    );
}
