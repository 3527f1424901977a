//! Table II: memory requirement per training-pipeline stage.

use cbench::{banner, write_csv, Context};
use cpipeline::{encode_episode, EncodeConfig};
use csurrogate::episode_loss;
use ctensor::prelude::*;

fn main() {
    banner("Table II — memory per training stage", "paper Table II");
    let ctx = Context::small(10);
    let ep = encode_episode(
        &ctx.train_archive[..ctx.scenario.t_out + 1],
        &ctx.trained.stats,
        &EncodeConfig::default(),
    );

    // Stage 1: training sample loading (episode payload).
    let sample_bytes = ep.nbytes();

    // Stage 2: training sample processing (metered activations).
    let mut g = Graph::new();
    g.training = true;
    let x3 = g.constant(ep.x3d.clone());
    let x2 = g.constant(ep.x2d.clone());
    let (p3, p2) = ctx.trained.model.forward(&mut g, x3, x2);
    let _ = episode_loss(&mut g, p3, p2, &ep.target3, &ep.target2, &ctx.trained.mask);
    let act_bytes = g.meter().peak;

    // Stage 3: model parameter updating (weights + grads + Adam m,v).
    let n_params = ctx.trained.model.num_parameters();
    let update_bytes = n_params * 4 * 4;

    println!("\npaper: loading 4 GB | processing 42 GB | updating 12 GB (per 900x600x12 sample)");
    println!(
        "ours  (scaled mesh {}x{}x{}):",
        ctx.grid.ny,
        ctx.grid.nx,
        ctx.grid.sigma.nz()
    );
    println!(
        "  sample loading     : {:>12} bytes ({:.2} MB)",
        sample_bytes,
        sample_bytes as f64 / 1e6
    );
    println!(
        "  sample processing  : {:>12} bytes ({:.2} MB peak activations)",
        act_bytes,
        act_bytes as f64 / 1e6
    );
    println!(
        "  parameter updating : {:>12} bytes ({:.2} MB; {} params x 4 states)",
        update_bytes,
        update_bytes as f64 / 1e6,
        n_params
    );
    let rows = vec![
        format!("loading,{sample_bytes}"),
        format!("processing,{act_bytes}"),
        format!("updating,{update_bytes}"),
    ];
    write_csv("table2.csv", "stage,bytes", &rows);
    assert!(
        act_bytes > sample_bytes,
        "activations dominate, as in the paper"
    );
}
