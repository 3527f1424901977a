//! Fig. 5: spatial maps — ROMS vs surrogate vs difference for u, v, ζ.

use cbench::{banner, write_csv, Context};

fn main() {
    banner(
        "Fig. 5 — spatial forecast maps (ROMS vs AI vs diff)",
        "paper Fig. 5",
    );
    let ctx = Context::small(20);
    let w = &ctx.test_archive[..ctx.scenario.t_out + 1];
    let pred = ctx.trained.predict_episode(w);
    let reference = &w[w.len() - 1];
    let ai = pred.last().unwrap();
    let k = ctx.grid.sigma.nz() - 1; // surface layer

    for (name, rf, pf) in [("u", &reference.u, &ai.u), ("v", &reference.v, &ai.v)] {
        let mut rows = Vec::new();
        let mut max_diff = 0.0f32;
        for j in 0..reference.ny {
            for i in 0..reference.nx {
                let idx = reference.idx3(k, j, i);
                let d = pf[idx] - rf[idx];
                max_diff = max_diff.max(d.abs());
                rows.push(format!("{j},{i},{},{},{}", rf[idx], pf[idx], d));
            }
        }
        write_csv(&format!("fig5_{name}.csv"), "j,i,roms,ai,diff", &rows);
        println!("{name}: surface-layer max |diff| = {max_diff:.4} m/s");
    }
    let mut rows = Vec::new();
    let mut max_diff = 0.0f32;
    for j in 0..reference.ny {
        for i in 0..reference.nx {
            let idx = reference.idx2(j, i);
            let d = ai.zeta[idx] - reference.zeta[idx];
            max_diff = max_diff.max(d.abs());
            rows.push(format!(
                "{j},{i},{},{},{}",
                reference.zeta[idx], ai.zeta[idx], d
            ));
        }
    }
    write_csv("fig5_zeta.csv", "j,i,roms,ai,diff", &rows);
    println!("ζ: max |diff| = {max_diff:.4} m (tidal range ~0.75 m)");
}
