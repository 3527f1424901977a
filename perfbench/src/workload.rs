//! Workload definitions, set-up, and the Table I block every workload
//! runs: a verified hybrid forecast at f32 and int8 against tiled ROMS on
//! the same mesh, horizon and forcing.

use std::time::{Duration, Instant};

use ccore::{
    train_surrogate, ErrorTable, HybridForecaster, HybridOutcome, Scenario, TrainedSurrogate,
    ZETA_TOL_INT8,
};
use cgrid::Grid;
use cocean::{run_tiled, Snapshot};
use cphysics::{VerifierConfig, ACCEPTED_THRESHOLD};
use cserve::{ForecastServer, ServeConfig};
use ctensor::quant::Precision;

use crate::serve::{PhaseSpec, Traffic};
use crate::stats::Json;

/// Forcing year of the held-out reference (training uses year 0).
const REFERENCE_YEAR: u32 = 1;
/// Index in the reference archive where every forecast starts.
pub const FORECAST_START: usize = 0;

/// One benchmark workload. Every figure here is part of the workload's
/// definition: none is derived from a measurement.
pub struct Workload {
    pub name: &'static str,
    /// Mesh, archive length and training budget.
    pub scenario: Scenario,
    /// Fixed training seed; `None` trains with the workload seed.
    pub train_seed: Option<u64>,
    /// Forecast horizon in episodes of `scenario.t_out` snapshots.
    pub episodes: usize,
    /// Forecasts at each precision, and ROMS runs at each tiling, per
    /// Table I repeat.
    pub forecasts_per_repeat: usize,
    pub roms_per_repeat: usize,
    /// Fewest measured rounds per run. A round is one Table I repeat,
    /// preceded on a serving workload by a nominal phase and a burst, so
    /// every row samples the whole run and the rows are medians over
    /// rounds.
    pub min_repeats: usize,
    /// Passes per repeat that time each episode as a batch-1 request
    /// (the one-caller latency rows of the forecast workload).
    pub episode_requests: usize,
    /// Serving traffic; `None` runs no server.
    pub serve: Option<ServeSpec>,
}

pub struct ServeSpec {
    pub traffic: Traffic,
    pub config: ServeConfig,
    /// Unmeasured traffic that warms the replicas and the cache.
    pub warmup: PhaseSpec,
    /// Nominal rate, and the share of the measuring time spent at it
    /// (split over `min_repeats` rounds).
    pub nominal_rps: f64,
    pub nominal_share_of_run: f64,
    /// Over-capacity burst per round: fixed rate and request count.
    pub burst: PhaseSpec,
}

pub fn workload(name: &str) -> Option<Workload> {
    let serving = |name, traffic, nominal_rps, burst_rps, burst_count| {
        let mut sc = Scenario::small();
        sc.train_snapshots = 72;
        sc.epochs = 3;
        Workload {
            name,
            scenario: sc,
            // The deployed model is fixed; the seed draws the traffic.
            train_seed: Some(0),
            episodes: 2,
            forecasts_per_repeat: 2,
            roms_per_repeat: 1,
            min_repeats: 7,
            episode_requests: 0,
            serve: Some(ServeSpec {
                traffic,
                config: ServeConfig {
                    workers: 2,
                    max_batch: 8,
                    max_wait: Duration::from_millis(2),
                    queue_capacity: 4096,
                    cache_capacity: 16,
                    ..ServeConfig::default()
                },
                warmup: PhaseSpec {
                    name: "warmup",
                    rate_rps: 200.0,
                    count: 64,
                },
                nominal_rps,
                nominal_share_of_run: 0.5,
                burst: PhaseSpec {
                    name: "burst",
                    rate_rps: burst_rps,
                    count: burst_count,
                },
            }),
        }
    };
    Some(match name {
        "forecast" => {
            let mut sc = Scenario::medium();
            sc.train_snapshots = 36;
            sc.epochs = 2;
            Workload {
                name: "forecast",
                scenario: sc,
                // Each seed is another trained instance of the model.
                train_seed: None,
                episodes: 2,
                forecasts_per_repeat: 2,
                roms_per_repeat: 1,
                min_repeats: 5,
                episode_requests: 8,
                serve: None,
            }
        }
        "serve_distinct" => serving("serve_distinct", Traffic::Distinct, 30.0, 400.0, 64),
        "serve_zipf" => serving(
            "serve_zipf",
            Traffic::Zipf {
                windows: 22,
                s: 1.0,
            },
            60.0,
            20_000.0,
            500,
        ),
        _ => return None,
    })
}

impl Workload {
    pub fn horizon(&self) -> usize {
        self.episodes * self.scenario.t_out
    }

    /// The scenario for `seed`, whose `seed` field drives weight
    /// initialisation and the training shuffle order.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let mut sc = self.scenario.clone();
        sc.seed = self.train_seed.unwrap_or(seed);
        sc
    }

    pub fn describe(&self) -> Json {
        let sc = &self.scenario;
        let mut j = Json::new();
        j.str(
            "mesh",
            &format!("{}x{}x{}", sc.swin.ny, sc.swin.nx, sc.swin.nz),
        )
        .int("t_out", sc.t_out as u64)
        .num("snapshot_interval_s", sc.snapshot_interval)
        .int("train_snapshots", sc.train_snapshots as u64)
        .int("epochs", sc.epochs as u64)
        .num("lr", sc.lr as f64)
        .str(
            "train_seed",
            &self
                .train_seed
                .map_or("the workload seed".into(), |s| s.to_string()),
        )
        .int("forecast_start", FORECAST_START as u64)
        .num("spinup_s", sc.spinup)
        .int("episodes", self.episodes as u64)
        .int("forecasts_per_repeat", self.forecasts_per_repeat as u64)
        .int("roms_per_repeat", self.roms_per_repeat as u64)
        .int("min_repeats", self.min_repeats as u64)
        .int("horizon_snapshots", self.horizon() as u64)
        .num("verify_threshold", ACCEPTED_THRESHOLD);
        if let Some(s) = &self.serve {
            let c = &s.config;
            let mut cfg = Json::new();
            cfg.int("workers", c.workers as u64)
                .int("max_batch", c.max_batch as u64)
                .num("max_wait_ms", c.max_wait.as_secs_f64() * 1e3)
                .int("queue_capacity", c.queue_capacity as u64)
                .int("cache_capacity", c.cache_capacity as u64)
                .str("backend", &format!("{:?}", c.backend))
                .str("precision", &format!("{:?}", c.precision));
            let traffic = match s.traffic {
                Traffic::Distinct => "distinct".to_string(),
                Traffic::Zipf { windows, s } => format!("zipf(s={s}) over {windows} windows"),
            };
            j.obj("serve_config", &cfg)
                .str("traffic", &traffic)
                .num("warmup_rps", s.warmup.rate_rps)
                .int("warmup_count", s.warmup.count as u64)
                .num("nominal_rps", s.nominal_rps)
                .num("nominal_share_of_run", s.nominal_share_of_run)
                .num("burst_rps", s.burst.rate_rps)
                .int("burst_count_per_round", s.burst.count as u64);
        }
        j
    }
}

/// Everything a workload builds before it is measured.
pub struct Setup {
    pub grid: Grid,
    /// Training archive (forcing year 0); serving windows come from it.
    pub archive: Vec<Snapshot>,
    /// Held-out reference trajectory (year 1) for boundary frames and
    /// forecast error.
    pub reference: Vec<Snapshot>,
    pub trained: TrainedSurrogate,
    pub int8: TrainedSurrogate,
    pub server: Option<ForecastServer>,
    pub simulate_s: f64,
    pub train_s: f64,
    pub samples_per_s: f64,
    pub total_s: f64,
}

/// Archive simulation, training, int8 instantiation and server start.
pub fn setup(w: &Workload, seed: u64) -> Setup {
    let t0 = Instant::now();
    let sc = w.scenario(seed);
    let grid = sc.grid();
    let archive = sc.simulate_archive(&grid, 0, sc.train_snapshots);
    let reference = sc.simulate_archive(&grid, REFERENCE_YEAR, FORECAST_START + w.horizon() + 1);
    let simulate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let trained = train_surrogate(&sc, &grid, &archive);
    let train_s = t1.elapsed().as_secs_f64();
    let int8 = trained.spec().with_precision(Precision::Int8).instantiate();
    let server = w
        .serve
        .as_ref()
        .map(|s| ForecastServer::new(trained.spec(), s.config.clone()));
    Setup {
        samples_per_s: trained.last_epoch.instances_per_sec,
        grid,
        archive,
        reference,
        trained,
        int8,
        server,
        simulate_s,
        train_s,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// Timings of one Table I repeat.
#[derive(Default)]
pub struct Samples {
    pub forecast_s: Vec<f64>,
    pub forecast_int8_s: Vec<f64>,
    pub roms_s: Vec<f64>,
    pub roms_1tile_s: Vec<f64>,
    /// Mean `comm_seconds` per rank at 2 tiles.
    pub halo_comm_s: Vec<f64>,
    /// Per-episode request latency (ms) at batch 1.
    pub episode_ms: Vec<f64>,
}

/// What the Table I repeats of a run share: outcomes, the reference
/// forecast the repeats must reproduce, and the gate record.
#[derive(Default)]
pub struct TableOne {
    pub episodes: usize,
    pub fallbacks: usize,
    pub zeta_rmse_m: f64,
    pub int8_max_dzeta_m: f64,
    /// The f32 forecast of the first repeat, which every later repeat must
    /// reproduce.
    pub first_forecast: Vec<Snapshot>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl TableOne {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Gates on one f32/int8 forecast pair: full length, finite, int8
    /// within the parity tolerance on the first episode, and the f32
    /// forecast identical on every repeat.
    fn check_forecasts(&mut self, w: &Workload, s: &Setup, a: &HybridOutcome, b: &HybridOutcome) {
        let horizon = w.horizon();
        let finite = |v: &[Snapshot]| {
            v.iter().all(|x| {
                [&x.zeta, &x.u, &x.v, &x.w]
                    .iter()
                    .all(|f| f.iter().all(|y| y.is_finite()))
            })
        };
        for (label, r) in [("f32", a), ("int8", b)] {
            if r.snapshots.len() != horizon || !finite(&r.snapshots) {
                self.fail(format!(
                    "{label} forecast: {} snapshots (want {horizon}) or non-finite values",
                    r.snapshots.len()
                ));
            }
        }
        let first = w
            .scenario
            .t_out
            .min(a.snapshots.len())
            .min(b.snapshots.len());
        let dz = a.snapshots[..first]
            .iter()
            .zip(&b.snapshots[..first])
            .flat_map(|(x, y)| x.zeta.iter().zip(&y.zeta).map(|(p, q)| (p - q).abs()))
            .fold(0.0f32, f32::max);
        self.int8_max_dzeta_m = self.int8_max_dzeta_m.max(dz as f64);
        if dz.is_nan() || dz > ZETA_TOL_INT8 {
            self.fail(format!(
                "int8 first episode max |dzeta| {dz} m exceeds {ZETA_TOL_INT8} m"
            ));
        }
        if self.first_forecast.is_empty() {
            if a.snapshots.len() == horizon {
                let truth = &s.reference[FORECAST_START + 1..=FORECAST_START + horizon];
                self.zeta_rmse_m = ErrorTable::between(&s.grid, truth, &a.snapshots).rmse[3];
            }
            self.first_forecast = a.snapshots.clone();
        } else if !crate::layers::bitwise_equal(&self.first_forecast, &a.snapshots) {
            self.fail("f32 forecast differs between repeats".into());
        }
        self.episodes += a.episodes_total;
        self.fallbacks += a.episodes_fallback;
    }
}

fn verifier() -> VerifierConfig {
    VerifierConfig {
        threshold: ACCEPTED_THRESHOLD,
    }
}

/// One repeat of the Table I block, with its correctness gates.
pub fn table_one_repeat(w: &Workload, s: &Setup, out: &mut TableOne) -> Samples {
    let mut samples = Samples::default();
    let sc = &w.scenario;
    let start = FORECAST_START;
    let ocean = sc.ocean_config(&s.grid, REFERENCE_YEAR);
    let horizon = w.horizon();

    let run = |model: &TrainedSurrogate| {
        let fc = HybridForecaster::new(&s.grid, model, ocean.clone(), verifier());
        let t = Instant::now();
        let r = fc.forecast(&s.reference, start, w.episodes);
        (t.elapsed().as_secs_f64(), r)
    };
    for _ in 0..w.forecasts_per_repeat {
        let (f32_s, f32_run) = run(&s.trained);
        let (int8_s, int8_run) = run(&s.int8);
        out.attempted += 2;
        match (f32_run, int8_run) {
            (Ok(a), Ok(b)) => {
                out.check_forecasts(w, s, &a, &b);
                samples.forecast_s.push(f32_s);
                samples.forecast_int8_s.push(int8_s);
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    out.fail(format!("forecast error: {e}"));
                }
            }
        }
    }

    for _ in 0..w.episode_requests {
        if out.first_forecast.len() != horizon {
            break;
        }
        // One caller at batch 1: each episode of the forecast above is
        // replayed as its own verified request, from the state the
        // forecast reached, so the requests see the same verdicts.
        let fc = HybridForecaster::new(&s.grid, &s.trained, ocean.clone(), verifier());
        for e in 0..w.episodes {
            let w0 = start + e * sc.t_out;
            let initial = match e {
                0 => s.reference[start].clone(),
                _ => out.first_forecast[e * sc.t_out - 1].clone(),
            };
            let mut window = vec![initial];
            window.extend_from_slice(&s.reference[w0 + 1..=w0 + sc.t_out]);
            out.attempted += 1;
            let t = Instant::now();
            match fc.forecast(&window, 0, 1) {
                Ok(r) if r.snapshots.len() == sc.t_out => {
                    samples.episode_ms.push(t.elapsed().as_secs_f64() * 1e3)
                }
                Ok(r) => {
                    samples.episode_ms.push(f64::INFINITY);
                    out.fail(format!("episode request: {} snapshots", r.snapshots.len()));
                }
                Err(err) => {
                    samples.episode_ms.push(f64::INFINITY);
                    out.fail(format!("episode request: {err}"));
                }
            }
        }
    }

    let interval = sc.snapshot_interval;
    for _ in 0..w.roms_per_repeat {
        let t = Instant::now();
        let two = run_tiled(&s.grid, &ocean, 2, horizon, interval);
        samples.roms_s.push(t.elapsed().as_secs_f64());
        samples
            .halo_comm_s
            .push(two.stats.iter().map(|c| c.comm_seconds).sum::<f64>() / two.stats.len() as f64);
        let t = Instant::now();
        let one = run_tiled(&s.grid, &ocean, 1, horizon, interval);
        samples.roms_1tile_s.push(t.elapsed().as_secs_f64());
        out.attempted += 2;
        // Tiling must not change the physics: bitwise, as the
        // repository's tiled-equivalence tests require.
        if one.snapshots.len() != horizon
            || !crate::layers::bitwise_equal(&one.snapshots, &two.snapshots)
        {
            out.fail("2-tile ROMS differs from 1-tile ROMS".into());
        }
    }
    samples
}
