//! Quickstart: train a tiny dynamic net with VPPS in a dozen lines.
//!
//! Mirrors the paper's §III-D usage: build a model, create a `Handle`
//! (which JIT-specializes the persistent forward-backward kernel), then call
//! `fb` once per batch and `sync_get_latest_loss` when you need the number.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dyn_graph::{Graph, Model};
use gpu_sim::DeviceConfig;
use vpps::{BackendKind, Handle, VppsOptions};

fn main() -> Result<(), vpps::VppsError> {
    // 1. Define the model parameters (this is what gets register-cached).
    let mut model = Model::new(42);
    let w_hidden = model.add_matrix("W_hidden", 64, 32);
    let b_hidden = model.add_bias("b_hidden", 64);
    let w_out = model.add_matrix("W_out", 4, 64);

    // 2. Specialize the kernel for this model — paper: `vpps::handle hndl(model)`.
    //    The `backend` option picks how the simulated kernel executes on the
    //    host: the lowered micro-op executor here, or the reference
    //    interpreter it is checked against.
    let opts = VppsOptions {
        backend: BackendKind::Lowered,
        ..VppsOptions::default()
    };
    let mut handle = Handle::new(&model, DeviceConfig::titan_v(), opts)?;
    println!(
        "specialized kernel: {} CTAs/SM, rpw {}, modeled JIT cost {:.2}s, backend {}",
        handle.plan().ctas_per_sm(),
        handle.plan().rpw(),
        handle.jit_cost().total().as_secs(),
        handle.backend().name(),
    );

    // 3. Training loop. Each input may build a *different* graph — here the
    //    recurrence depth varies per step, the defining dynamic-net trait.
    for step in 0..20 {
        let depth = 1 + step % 4;
        let mut g = Graph::new();
        let x = g.input(vec![0.1 * (step % 7) as f32; 32]);
        let mut h = g.affine(&model, w_hidden, b_hidden, x);
        h = g.tanh(h);
        for _ in 1..depth {
            // Dynamic recurrence over a 64-dim projection of h.
            let z = g.matvec(&model, w_out, h);
            let z4 = g.tanh(z);
            // Re-embed the 4-dim vector by concatenating with the input.
            let pad = g.input(vec![0.0; 28]);
            let x2 = g.concat(&[z4, pad]);
            let h2 = g.affine(&model, w_hidden, b_hidden, x2);
            h = g.tanh(h2);
        }
        let logits = g.matvec(&model, w_out, h);
        let loss = g.pick_neg_log_softmax(logits, (step % 4) as usize);

        // `fb` is asynchronous: it returns the *previous* batch's loss.
        let stale = handle.fb(&mut model, &g, loss);
        if step % 5 == 0 {
            println!("step {step:2} (depth {depth}): previous loss = {stale:.4}");
        }
    }

    // 4. Explicit synchronization for the final loss, and the unified
    //    metrics every execution backend populates identically.
    let last = handle.sync_get_latest_loss();
    println!("final loss = {last:.4}");
    let metrics = handle.metrics();
    println!(
        "{} persistent kernels launched, {:.2} MB of weights loaded from DRAM",
        metrics.launches,
        metrics.weight_loads_mb(),
    );
    println!("simulated training wall time: {}", handle.wall_time());
    Ok(())
}
