//! Per-layer timing from the benchmark's own timers around public calls.
//!
//! [`forward_timed`] rebuilds `SwinSurrogate::forward` from the model's
//! public sub-modules so each stage can be timed without tracing inside
//! the program; [`hybrid_forecast_timed`] does the same for
//! `HybridForecaster::forecast`. Both must reproduce the library call
//! bitwise, which the traced run checks.

use std::collections::BTreeMap;
use std::time::Instant;

use ccore::{ForecastError, TrainedSurrogate};
use cgrid::Grid;
use cocean::{OceanConfig, Roms, Snapshot};
use cphysics::{Verifier, VerifierConfig};
use cpipeline::{decode_prediction, encode_episode, stack_episodes};
use csurrogate::{CheckpointPolicy, SwinSurrogate};
use ctensor::prelude::*;

/// Accumulated wall time and call count per named layer.
#[derive(Default)]
pub struct Timers {
    rows: BTreeMap<&'static str, (f64, u64)>,
}

impl Timers {
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let row = self.rows.entry(name).or_default();
        row.0 += t.elapsed().as_secs_f64();
        row.1 += 1;
        out
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.1)
    }

    /// Sum over every row: the wall time the layer rows account for.
    pub fn covered_s(&self) -> f64 {
        self.rows.values().map(|r| r.0).sum()
    }
}

/// `SwinSurrogate::forward` composed from the model's public parts, with
/// one timer per layer: `surrogate.embed` (both patch embeddings, the
/// depth concat and the positional encoding), `surrogate.stage{s}`,
/// `surrogate.merge{s}`, `surrogate.decoder` (all upsampling blocks) and
/// `surrogate.head` (depth split, recovery heads and crops).
pub fn forward_timed(
    model: &SwinSurrogate,
    g: &mut Graph,
    x3d: Var,
    x2d: Var,
    t: &mut Timers,
) -> (Var, Var) {
    const STAGE: [&str; 4] = [
        "surrogate.stage0",
        "surrogate.stage1",
        "surrogate.stage2",
        "surrogate.stage3",
    ];
    const MERGE: [&str; 3] = ["surrogate.merge0", "surrogate.merge1", "surrogate.merge2"];
    assert_eq!(
        model.checkpoint,
        CheckpointPolicy::None,
        "inference runs without activation checkpointing"
    );
    assert!(model.stages.len() <= STAGE.len(), "more stages than rows");
    let _backend = ctensor::backend::scoped(model.cfg.backend.resolve());
    let cfg = &model.cfg;
    let t_in = cfg.t_in();
    let b = g.value(x3d).shape()[0];

    let mut x = t.time("surrogate.embed", || {
        let t3 = model.embed3d.forward(g, x3d);
        let t2 = model.embed2d.forward(g, x2d);
        let tokens = g.concat(&[t3, t2], 3);
        model.pos.forward(g, tokens)
    });
    let mut skips = Vec::with_capacity(model.stages.len());
    for (s, stage) in model.stages.iter().enumerate() {
        x = t.time(STAGE[s], || stage.forward(g, x));
        skips.push(x);
        if s + 1 < model.stages.len() {
            x = t.time(MERGE[s], || model.merges[s].forward(g, x));
        }
    }
    let x = t.time("surrogate.decoder", || {
        let mut x = x;
        for (k, up) in model.ups.iter().enumerate() {
            x = up.forward(g, x, skips[model.stages.len() - 2 - k]);
        }
        x
    });
    t.time("surrogate.head", || {
        let d3 = cfg.token_grid().2 - 1;
        let x3 = g.narrow(x, 3, 0, d3);
        let x2 = g.narrow(x, 3, d3, 1);
        let out3 = model.recover3d.forward(g, x3);
        let out2 = model.recover2d.forward(g, x2);
        let out3 = crop_to(g, out3, &[b, 3, cfg.ny, cfg.nx, cfg.nz, t_in]);
        let out3 = g.narrow(out3, 5, 1, cfg.t_out);
        let out2 = crop_to(g, out2, &[b, 1, cfg.ny, cfg.nx, t_in]);
        let out2 = g.narrow(out2, 4, 1, cfg.t_out);
        (out3, out2)
    })
}

fn crop_to(g: &mut Graph, mut x: Var, target: &[usize]) -> Var {
    let shape = g.value(x).shape().to_vec();
    for (axis, (&cur, &want)) in shape.iter().zip(target).enumerate() {
        if cur != want {
            x = g.narrow(x, axis, 0, want);
        }
    }
    x
}

/// Zero land cells, as the surrogate's own predict path does.
fn mask_land(mask: &Tensor, snaps: &mut [Snapshot]) {
    for s in snaps {
        for j in 0..s.ny {
            for i in 0..s.nx {
                if mask.at(&[j, i]) < 0.5 {
                    let i2 = s.idx2(j, i);
                    s.zeta[i2] = 0.0;
                    for k in 0..s.nz {
                        let i3 = s.idx3(k, j, i);
                        s.u[i3] = 0.0;
                        s.v[i3] = 0.0;
                        s.w[i3] = 0.0;
                    }
                }
            }
        }
    }
}

/// Outcome of a timed hybrid forecast.
pub struct TimedForecast {
    pub snapshots: Vec<Snapshot>,
    pub episodes: usize,
}

/// `HybridForecaster::forecast` composed from public calls, one timer per
/// layer: `pipeline.encode` (window assembly, validation, encode),
/// `pipeline.stack` (batching and graph inputs), the surrogate rows of
/// [`forward_timed`], `pipeline.decode` (decode and land mask),
/// `physics.verify` and `physics.fallback` (the ROMS re-run of a rejected
/// episode).
#[allow(clippy::too_many_arguments)]
pub fn hybrid_forecast_timed(
    grid: &Grid,
    surrogate: &TrainedSurrogate,
    ocean: &OceanConfig,
    verifier_cfg: VerifierConfig,
    reference: &[Snapshot],
    start: usize,
    n_episodes: usize,
    t: &mut Timers,
) -> Result<TimedForecast, ForecastError> {
    let _backend = ctensor::backend::scoped(surrogate.model.cfg.backend.resolve());
    let t_out = surrogate.model.cfg.t_out;
    let verifier = Verifier::new(grid, verifier_cfg);
    let mut out = TimedForecast {
        snapshots: Vec::with_capacity(n_episodes * t_out),
        episodes: n_episodes,
    };
    let mut current = reference[start].clone();
    for e in 0..n_episodes {
        let w0 = start + e * t_out;
        let ep = t.time("pipeline.encode", || {
            let mut window = Vec::with_capacity(t_out + 1);
            window.push(current.clone());
            window.extend_from_slice(&reference[w0 + 1..=w0 + t_out]);
            surrogate.validate_window(&window)?;
            Ok::<_, ForecastError>(encode_episode(&window, &surrogate.stats, &surrogate.encode))
        })?;
        let (mut g, x3, x2) = t.time("pipeline.stack", || {
            let batch = stack_episodes(std::slice::from_ref(&ep));
            let mut g = Graph::inference_with_precision(surrogate.precision);
            let x3 = g.constant(batch.x3d);
            let x2 = g.constant(batch.x2d);
            (g, x3, x2)
        });
        let (p3, p2) = forward_timed(&surrogate.model, &mut g, x3, x2, t);
        let prediction = t.time("pipeline.decode", || {
            let mut snaps = decode_prediction(
                g.value(p3),
                g.value(p2),
                &surrogate.stats,
                ep.t0,
                surrogate.snapshot_interval,
            );
            mask_land(&surrogate.mask, &mut snaps);
            snaps
        });
        let passed = t.time("physics.verify", || {
            let verdicts = verifier.check_episode(&current, &prediction);
            verdicts.iter().all(|v| v.passed) && verdicts.len() == t_out
        });
        if passed {
            current = prediction
                .last()
                .ok_or(ForecastError::EmptyEpisode)?
                .clone();
            out.snapshots.extend(prediction);
        } else {
            let sim = t.time("physics.fallback", || {
                let mut roms = Roms::new(grid, ocean.clone());
                roms.load(&current);
                roms.record(t_out, surrogate.snapshot_interval)
            });
            current = sim.last().ok_or(ForecastError::EmptyEpisode)?.clone();
            out.snapshots.extend(sim);
        }
    }
    Ok(out)
}

/// True when the two trajectories are identical bit for bit.
pub fn bitwise_equal(a: &[Snapshot], b: &[Snapshot]) -> bool {
    let same = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.time.to_bits() == q.time.to_bits()
                && same(&p.zeta, &q.zeta)
                && same(&p.u, &q.u)
                && same(&p.v, &q.v)
                && same(&p.w, &q.w)
        })
}
