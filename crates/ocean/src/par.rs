//! MPI-style tiled parallel driver — the "Traditional MPI ROMS" baseline of
//! the paper's Table I, on threads.
//!
//! Each rank owns one tile ([`TileDomain`]), exchanges ζ/ūbar/v̄bar halos
//! every fast step, and computes tile-edge-shared faces redundantly from
//! the exchanged halos, which keeps the tiled run **bit-identical** to the
//! serial one (asserted by tests).

use cgrid::Grid;
use chpc::halo::{recv_halo, send_halo};
use chpc::{run_parallel, Comm, CommStats, Decomp, Side};

use crate::baroclinic::step_baroclinic;
use crate::barotropic::{apply_boundary_halos, step_fast};
use crate::domain::TileDomain;
use crate::model::OceanConfig;
use crate::snapshot::{take_snapshot, Snapshot};
use crate::state::State;

/// Tag bases per exchanged field (direction tags 0..4 are added).
const TAG_ZETA: u64 = 10;
const TAG_UBAR: u64 = 20;
const TAG_VBAR: u64 = 30;
const TAG_GATHER: u64 = 1_000;

/// Exchange ζ, ubar, vbar halos with all neighbors.
fn exchange_state_halos(comm: &Comm, decomp: &Decomp, dom: &TileDomain, state: &mut State) {
    let (ny, nx) = (dom.ny as isize, dom.nx as isize);

    // ζ: interior edge cells -> neighbor halo ring.
    let zeta = &mut state.zeta;
    send_halo(comm, decomp, TAG_ZETA, |side| match side {
        Side::West => zeta.col_strip(0, 0, ny),
        Side::East => zeta.col_strip(nx - 1, 0, ny),
        Side::South => zeta.row_strip(0, 0, nx),
        Side::North => zeta.row_strip(ny - 1, 0, nx),
    });
    recv_halo(comm, decomp, TAG_ZETA, |side, s| match side {
        Side::West => zeta.set_col_strip(-1, 0, &s),
        Side::East => zeta.set_col_strip(nx, 0, &s),
        Side::South => zeta.set_row_strip(-1, 0, &s),
        Side::North => zeta.set_row_strip(ny, 0, &s),
    });

    // ubar on (ny, nx+1) faces: shared edge faces are computed on both
    // sides; halos carry the next interior face column / full face rows.
    let ubar = &mut state.ubar;
    send_halo(comm, decomp, TAG_UBAR, |side| match side {
        Side::West => ubar.col_strip(1, 0, ny),
        Side::East => ubar.col_strip(nx - 1, 0, ny),
        Side::South => ubar.row_strip(0, 0, nx + 1),
        Side::North => ubar.row_strip(ny - 1, 0, nx + 1),
    });
    recv_halo(comm, decomp, TAG_UBAR, |side, s| match side {
        Side::West => ubar.set_col_strip(-1, 0, &s),
        Side::East => ubar.set_col_strip(nx + 1, 0, &s),
        Side::South => ubar.set_row_strip(-1, 0, &s),
        Side::North => ubar.set_row_strip(ny, 0, &s),
    });

    // vbar on (ny+1, nx) faces.
    let vbar = &mut state.vbar;
    send_halo(comm, decomp, TAG_VBAR, |side| match side {
        Side::West => vbar.col_strip(0, 0, ny + 1),
        Side::East => vbar.col_strip(nx - 1, 0, ny + 1),
        Side::South => vbar.row_strip(1, 0, nx),
        Side::North => vbar.row_strip(ny - 1, 0, nx),
    });
    recv_halo(comm, decomp, TAG_VBAR, |side, s| match side {
        Side::West => vbar.set_col_strip(-1, 0, &s),
        Side::East => vbar.set_col_strip(nx, 0, &s),
        Side::South => vbar.set_row_strip(-1, 0, &s),
        Side::North => vbar.set_row_strip(ny + 1, 0, &s),
    });
}

/// Result of a tiled run.
pub struct TiledRun {
    /// Snapshots assembled on rank 0 (empty on other ranks' results).
    pub snapshots: Vec<Snapshot>,
    /// Per-rank communication statistics.
    pub stats: Vec<CommStats>,
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
}

/// Run the tiled model on `p` ranks, recording `n_snapshots` every
/// `interval` seconds. Returns globally assembled snapshots.
pub fn run_tiled(
    grid: &Grid,
    cfg: &OceanConfig,
    p: usize,
    n_snapshots: usize,
    interval: f64,
) -> TiledRun {
    let decomp = Decomp::auto(grid.ny, grid.nx, p);
    let per = (interval / cfg.dt_slow()).round() as usize;
    assert!(per >= 1, "interval shorter than a slow step");

    let t0 = std::time::Instant::now();
    let results = run_parallel(p, |comm| {
        let dom = TileDomain::from_grid(grid, decomp.tile(comm.rank()));
        let mut state = State::rest(&dom);
        let mut local_snaps: Vec<Snapshot> = Vec::with_capacity(n_snapshots);

        for _snap in 0..n_snapshots {
            for _slow in 0..per {
                for _fast in 0..cfg.ndtfast {
                    exchange_state_halos(comm, &decomp, &dom, &mut state);
                    apply_boundary_halos(&dom, &mut state, &cfg.forcing);
                    step_fast(&dom, &mut state, &cfg.phys, &cfg.forcing);
                }
                // Refresh interior halos so both owners of a tile-shared
                // face see the post-fast-loop ζ (physical-boundary halos
                // stay as the serial model leaves them: the baroclinic
                // solve must read the same stale ζ_ext serial reads).
                exchange_state_halos(comm, &decomp, &dom, &mut state);
                step_baroclinic(&dom, &mut state, &cfg.phys, cfg.dt_slow());
            }
            local_snaps.push(take_snapshot(&dom, &state));
        }

        // Gather snapshots to rank 0.
        let assembled = gather_snapshots(comm, &decomp, grid, local_snaps);
        (assembled, comm.stats())
    });
    let wall_seconds = t0.elapsed().as_secs_f64();

    let mut snapshots = Vec::new();
    let mut stats = Vec::with_capacity(p);
    for (rank_snaps, st) in results {
        if !rank_snaps.is_empty() {
            snapshots = rank_snaps;
        }
        stats.push(st);
    }
    TiledRun {
        snapshots,
        stats,
        wall_seconds,
    }
}

/// Send every tile's snapshot stack to rank 0 and assemble global fields.
fn gather_snapshots(
    comm: &Comm,
    decomp: &Decomp,
    grid: &Grid,
    local: Vec<Snapshot>,
) -> Vec<Snapshot> {
    let nz = grid.sigma.nz();
    if comm.rank() != 0 {
        for (s_idx, snap) in local.iter().enumerate() {
            let tag = TAG_GATHER + s_idx as u64;
            let mut payload = Vec::with_capacity(1 + snap.zeta.len() + 3 * snap.u.len());
            payload.push(snap.time);
            payload.extend(snap.zeta.iter().map(|&v| v as f64));
            payload.extend(snap.u.iter().map(|&v| v as f64));
            payload.extend(snap.v.iter().map(|&v| v as f64));
            payload.extend(snap.w.iter().map(|&v| v as f64));
            comm.send(0, tag, payload);
        }
        return Vec::new();
    }

    let (gny, gnx) = (grid.ny, grid.nx);
    let mut out: Vec<Snapshot> = local
        .iter()
        .map(|s| Snapshot {
            time: s.time,
            nz,
            ny: gny,
            nx: gnx,
            zeta: vec![0.0; gny * gnx],
            u: vec![0.0; nz * gny * gnx],
            v: vec![0.0; nz * gny * gnx],
            w: vec![0.0; nz * gny * gnx],
        })
        .collect();

    // Place rank 0's own tiles.
    let place = |dst: &mut Snapshot,
                 tile: chpc::Tile,
                 src_z: &[f64],
                 src_u: &[f64],
                 src_v: &[f64],
                 src_w: &[f64]| {
        let (tny, tnx) = (tile.ny(), tile.nx());
        for j in 0..tny {
            for i in 0..tnx {
                let g2 = (tile.j0 + j) * gnx + (tile.i0 + i);
                dst.zeta[g2] = src_z[j * tnx + i] as f32;
                for k in 0..nz {
                    let g3 = (k * gny + tile.j0 + j) * gnx + tile.i0 + i;
                    let l3 = (k * tny + j) * tnx + i;
                    dst.u[g3] = src_u[l3] as f32;
                    dst.v[g3] = src_v[l3] as f32;
                    dst.w[g3] = src_w[l3] as f32;
                }
            }
        }
    };

    let own_tile = decomp.tile(0);
    for (s_idx, snap) in local.iter().enumerate() {
        let z: Vec<f64> = snap.zeta.iter().map(|&v| v as f64).collect();
        let u: Vec<f64> = snap.u.iter().map(|&v| v as f64).collect();
        let v: Vec<f64> = snap.v.iter().map(|&v| v as f64).collect();
        let w: Vec<f64> = snap.w.iter().map(|&v| v as f64).collect();
        place(&mut out[s_idx], own_tile, &z, &u, &v, &w);
    }

    for rank in 1..comm.size() {
        let tile = decomp.tile(rank);
        let n2 = tile.cells();
        let n3 = nz * n2;
        for (s_idx, dst) in out.iter_mut().enumerate() {
            let payload = comm.recv(rank, TAG_GATHER + s_idx as u64);
            assert_eq!(payload.len(), 1 + n2 + 3 * n3);
            let z = &payload[1..1 + n2];
            let u = &payload[1 + n2..1 + n2 + n3];
            let v = &payload[1 + n2 + n3..1 + n2 + 2 * n3];
            let w = &payload[1 + n2 + 2 * n3..];
            place(dst, tile, z, u, v, w);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcing::TidalForcing;
    use crate::model::Roms;
    use cgrid::{EstuaryParams, GridParams};

    fn grid() -> Grid {
        Grid::build(&GridParams {
            estuary: EstuaryParams {
                ny: 24,
                nx: 20,
                ..Default::default()
            },
            nz: 3,
            ..Default::default()
        })
    }

    fn cfg(grid: &Grid) -> OceanConfig {
        let mut c = OceanConfig::for_grid(grid);
        c.forcing = TidalForcing::single(0.3, 12.0);
        c.ndtfast = 10;
        c
    }

    #[test]
    fn tiled_matches_serial_bitwise() {
        let g = grid();
        let c = cfg(&g);
        let interval = c.dt_slow() * 3.0;

        let mut serial = Roms::new(&g, c.clone());
        let serial_snaps = serial.record(2, interval);

        for p in [2usize, 4] {
            let tiled = run_tiled(&g, &c, p, 2, interval);
            assert_eq!(tiled.snapshots.len(), 2);
            for (a, b) in serial_snaps.iter().zip(&tiled.snapshots) {
                assert_eq!(a.time, b.time);
                assert_eq!(a.zeta, b.zeta, "ζ must be bit-identical at p={p}");
                assert_eq!(a.u, b.u, "u must be bit-identical at p={p}");
                assert_eq!(a.v, b.v, "v must be bit-identical at p={p}");
                assert_eq!(a.w, b.w, "w must be bit-identical at p={p}");
            }
        }
    }

    #[test]
    fn comm_volume_grows_with_ranks() {
        let g = grid();
        let c = cfg(&g);
        let interval = c.dt_slow();
        let r2 = run_tiled(&g, &c, 2, 1, interval);
        let r4 = run_tiled(&g, &c, 4, 1, interval);
        let total2: usize = r2.stats.iter().map(|s| s.doubles_sent).sum();
        let total4: usize = r4.stats.iter().map(|s| s.doubles_sent).sum();
        assert!(
            total4 > total2,
            "more tiles → more halo traffic ({total2} vs {total4})"
        );
    }

    #[test]
    fn single_rank_tiled_equals_serial() {
        let g = grid();
        let c = cfg(&g);
        let interval = c.dt_slow() * 2.0;
        let mut serial = Roms::new(&g, c.clone());
        let s = serial.record(1, interval);
        let t = run_tiled(&g, &c, 1, 1, interval);
        assert_eq!(s[0].zeta, t.snapshots[0].zeta);
    }
}
