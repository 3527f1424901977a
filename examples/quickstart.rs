//! Quickstart: simulate a small estuary, train the 4D Swin surrogate on
//! the archive, forecast one episode and verify it against mass
//! conservation — the full loop of the paper's Fig. 1 in one file.
//!
//! Run with: `cargo run --release --example quickstart`

use coastal::physics::{Verifier, VerifierConfig};
use coastal::tensor::nn::Module;
use coastal::{train_surrogate, Scenario};

fn main() {
    // 1. A scaled Charlotte-Harbor-like scenario (see DESIGN.md §1).
    let scenario = Scenario::small();
    let grid = scenario.grid();
    println!(
        "estuary mesh {}x{}x{} with {} wet cells",
        grid.ny,
        grid.nx,
        grid.sigma.nz(),
        grid.wet_cells()
    );

    // 2. Simulate the "training year" with the ROMS-like solver.
    let archive = scenario.simulate_archive(&grid, 0, 40);
    println!(
        "simulated {} snapshots ({} s apart)",
        archive.len(),
        scenario.snapshot_interval
    );

    // 3. Train the surrogate (patch embedding → 4D Swin → decoder).
    let trained = train_surrogate(&scenario, &grid, &archive);
    println!(
        "trained: {} parameters, final loss {:.4}",
        trained.model.num_parameters(),
        trained.last_epoch.mean_loss
    );

    // 4. Forecast one episode of the held-out year.
    let test = scenario.simulate_archive(&grid, 1, scenario.t_out + 1);
    let forecast = trained.predict_episode(&test);
    println!("forecast {} steps", forecast.len());

    // 5. Verify mass conservation like the paper's workflow.
    let verifier = Verifier::new(&grid, VerifierConfig::default());
    let verdicts = verifier.check_episode(&test[0], &forecast);
    for (k, v) in verdicts.iter().enumerate() {
        println!(
            "step {k}: residual {:.3e} m/s → {}",
            v.mean_residual,
            if v.passed {
                "PASS"
            } else {
                "FAIL (would fall back to ROMS)"
            }
        );
    }
}
