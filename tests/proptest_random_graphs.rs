//! Property tests over randomly generated dynamic computation graphs:
//! whatever graph shape the generator produces, VPPS execution must agree
//! with the reference executor. This is the portability claim tested as a
//! property, not on a fixed model zoo.

use dyn_graph::{exec as refexec, Model};
use gpu_sim::GpuSim;
use proptest::prelude::*;
use vpps::engine::{run_batch, EventInterp};
use vpps::exec::interp::ExecConfig;
use vpps::script::{generate, TableLayout};
use vpps::{GradStrategy, KernelPlan};
use vpps_tensor::Pool;

#[path = "support/graphgen.rs"]
mod graphgen;
use graphgen::{arb_recipe, build_from_recipe, small_device, DIM};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random graph: VPPS forward/backward/update equals the reference.
    #[test]
    fn vpps_matches_reference_on_random_graphs(recipe in arb_recipe()) {
        let mut model = Model::new(123);
        model.add_matrix("W1", DIM, DIM);
        model.add_matrix("W2", DIM, DIM);
        model.add_bias("b", DIM);

        let (g, loss) = build_from_recipe(&model, &recipe);

        // Reference.
        let mut ref_model = model.clone();
        let ref_loss = refexec::forward_backward(&g, &mut ref_model, loss);
        dyn_graph::Trainer::new(0.05).update(&mut ref_model);

        // VPPS.
        let plan = KernelPlan::build(&model, &small_device(), 1).expect("tiny model fits");
        let mut pool = Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).expect("pool big enough");
        let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
        for (id, node) in g.iter() {
            if let dyn_graph::Op::Input { values } = &node.op {
                pool.slice_mut(gs.layout.value_off[id.index()], node.dim)
                    .copy_from_slice(values);
            }
        }
        let mut gpu = GpuSim::new(small_device());
        let run = run_batch(
            &EventInterp,
            &plan,
            &gs,
            &mut pool,
            &mut model,
            &mut gpu,
            ExecConfig { learning_rate: 0.05, weight_decay: 0.0, apply_update: true },
        );

        prop_assert!(
            (run.loss - ref_loss).abs() < 1e-3 * (1.0 + ref_loss.abs()),
            "loss mismatch: vpps {} vs reference {}", run.loss, ref_loss
        );
        for ((_, pa), (_, pb)) in model.params().zip(ref_model.params()) {
            for (x, y) in pa.value.as_slice().iter().zip(pb.value.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3, "updated parameter {} diverged", pa.name);
            }
        }
    }

    /// Script generation never deadlocks or races under either gradient
    /// strategy, and always schedules every instruction (the interpreter
    /// asserts deadlock-freedom internally).
    #[test]
    fn scripts_never_deadlock(recipe in arb_recipe()) {
        let mut model = Model::new(321);
        model.add_matrix("W1", DIM, DIM);
        model.add_matrix("W2", DIM, DIM);
        model.add_bias("b", DIM);
        let (g, loss) = build_from_recipe(&model, &recipe);
        for strategy in [GradStrategy::InRegister, GradStrategy::GemmFallback] {
            let plan = KernelPlan::build_forced(&model, &small_device(), 1, strategy)
                .expect("fits");
            let mut pool = Pool::with_capacity(1 << 18);
            let tables = TableLayout::install(&model, &mut pool).expect("fits");
            let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
            prop_assert_eq!(
                vpps::script::validate_protocol(&gs.scripts, plan.distribution()),
                Ok(()),
                "{:?}: generated script violates the barrier protocol", strategy
            );
            let mut gpu = GpuSim::new(small_device());
            let run = run_batch(
                &EventInterp, &plan, &gs, &mut pool, &mut model, &mut gpu, ExecConfig::default(),
            );
            prop_assert!(run.instructions >= g.len() - 1);
            prop_assert!(run.loss.is_finite());
        }
    }

    /// The encoded script transfer round-trips for random graphs.
    #[test]
    fn encoded_scripts_round_trip(recipe in arb_recipe()) {
        let mut model = Model::new(555);
        model.add_matrix("W1", DIM, DIM);
        model.add_matrix("W2", DIM, DIM);
        model.add_bias("b", DIM);
        let (g, loss) = build_from_recipe(&model, &recipe);
        let plan = KernelPlan::build(&model, &small_device(), 1).expect("fits");
        let mut pool = Pool::with_capacity(1 << 18);
        let tables = TableLayout::install(&model, &mut pool).expect("fits");
        let gs = generate::generate(&g, loss, &plan, &mut pool, &tables).expect("fits");
        let encoded = gs.scripts.encode();
        let decoded = vpps::script::ScriptSet::decode(&encoded, gs.scripts.num_vpps());
        prop_assert_eq!(decoded, gs.scripts);
    }
}
