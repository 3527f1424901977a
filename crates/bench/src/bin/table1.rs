//! Table I: simulation overhead — MPI-style tiled ROMS at several core
//! counts vs the AI surrogate, on the same mesh and horizon.

use cbench::{banner, write_csv, Context};
use cocean::run_tiled;

fn main() {
    banner(
        "Table I — ROMS vs AI surrogate simulation overhead",
        "paper Table I",
    );
    let ctx = Context::small(30);
    let horizon_snaps = 2 * ctx.scenario.t_out; // two episodes of forecast
    let interval = ctx.scenario.snapshot_interval;

    println!("\npaper: 898x598x12, 12-day horizon: MPI ROMS 512 cores = 9,908 s; surrogate (1×A100) = 22 s (450×)");
    println!(
        "ours : {}x{}x{} mesh, {} snapshots of {}s\n",
        ctx.grid.ny,
        ctx.grid.nx,
        ctx.grid.sigma.nz(),
        horizon_snaps,
        interval
    );

    let mut rows = Vec::new();
    let mut roms_best = f64::INFINITY;
    for p in [1usize, 2, 4, 8] {
        let cfg = ctx.scenario.ocean_config(&ctx.grid, 1);
        let run = run_tiled(&ctx.grid, &cfg, p, horizon_snaps, interval);
        let comm: f64 = run.stats.iter().map(|s| s.comm_seconds).sum::<f64>() / p as f64;
        roms_best = roms_best.min(run.wall_seconds);
        println!(
            "ROMS (tiled)     cores={p:<3} wall={:>8.3}s  mean-comm={:>7.3}s",
            run.wall_seconds, comm
        );
        rows.push(format!("roms,{p},{:.6},{:.6}", run.wall_seconds, comm));
    }

    // Surrogate: same horizon = 2 episodes, batched inference.
    let windows = ctx.test_windows();
    let take: Vec<&[cocean::Snapshot]> = windows.iter().take(2).cloned().collect();
    let ai = ctx.trained.time_inference(&take);
    println!("AI surrogate     cores=1   wall={ai:>8.3}s");
    rows.push(format!("surrogate,1,{ai:.6},0.0"));
    let speedup = roms_best / ai;
    println!("\nspeedup of surrogate over fastest ROMS run: {speedup:.1}x");
    rows.push(format!("speedup,,{speedup:.3},"));
    write_csv("table1.csv", "solution,cores,wall_s,comm_s", &rows);
    assert!(speedup > 1.0, "surrogate must beat the simulator");
}
