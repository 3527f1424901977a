//! End-to-end benchmark of the coastal surrogate stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload forecast --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `forecast` (verified surrogate forecast vs tiled ROMS on the
//! medium mesh, Table I of the paper), `serve_distinct` and `serve_zipf`
//! (open-loop traffic into `ForecastServer`). With `--trace 0` the last
//! line of stdout carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics, timed around public calls in this
//! process plus kernel and span rows from a child process that turns on
//! the repository's profiling and tracing hooks. The line before the last
//! is a JSON report with provenance and per-repeat detail. A failed
//! correctness gate exits with code 1. See `perfbench/README.md`.

mod layers;
mod serve;
mod stats;
mod workload;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ccore::HybridForecaster;
use cphysics::{VerifierConfig, ACCEPTED_THRESHOLD};
use ctensor::prelude::*;

use crate::layers::Timers;
use crate::serve::{PhaseResult, PhaseSpec, Traffic};
use crate::stats::{median, percentile, quartile_json, Json};
use crate::workload::{Samples, Setup, TableOne, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Layer-timed forecasts in the per-layer run.
const LAYER_TIMED_FORECASTS: usize = 3;
/// Nominal phases the hooked child runs for its request spans.
const CHILD_NOMINAL_PHASES: usize = 3;
/// One-at-a-time requests whose median wall time compares the hooked
/// child with the untraced process on a serving workload.
const PROBE_REQUESTS: usize = 24;

/// Kernel series read from the registry in the hooked child.
const KERNELS: [&str; 6] = [
    "kernel.attention.f32",
    "kernel.matmul.f32",
    "kernel.binary.f32",
    "kernel.unary.f32",
    "kernel.layernorm.f32",
    "kernel.qlinear.int8",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? != "0",
            "--hooked-child" => a.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (forecast, serve_distinct, serve_zipf)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let ok = if args.child {
        hooked_child(&w, &args)
    } else if args.trace {
        per_layer_run(&w, &args)
    } else {
        end_to_end_run(&w, &args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ------------------------------------------------------------ measuring

/// One measured round: a Table I repeat, preceded on a serving workload
/// by a nominal phase and a burst.
struct Round {
    samples: Samples,
    /// `[nominal, burst]` on a serving workload, else empty.
    phases: Vec<PhaseResult>,
    /// Share of the machine's CPU time the hypervisor took during the
    /// round (`steal` in `/proc/stat`), reported as information only;
    /// NaN where the kernel does not say.
    steal: f64,
}

/// Everything one measured run produced.
struct Run {
    setup_s: Vec<f64>,
    setup: Setup,
    table: TableOne,
    warmup: Option<PhaseResult>,
    rounds: Vec<Round>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Run {
    /// One Table I timing over every round.
    fn table_samples(&self, f: fn(&Samples) -> &Vec<f64>) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| f(&r.samples).iter().copied())
            .collect()
    }

    /// Every round's phases called `name`.
    fn phases(&self, name: &str) -> Vec<&PhaseResult> {
        self.rounds
            .iter()
            .flat_map(|r| r.phases.iter())
            .filter(|p| p.name == name)
            .collect()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// `setups` set-ups in a row; the run keeps the last.
fn set_up(w: &Workload, seed: u64, setups: usize) -> Run {
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept: Option<Setup> = None;
    for i in 0..setups {
        // Drop the previous set-up first so peak memory is one set-up's.
        drop(kept.take());
        let s = workload::setup(w, seed);
        eprintln!(
            "[perfbench] set-up {}/{setups}: {:.3} s (simulate {:.3} s, train {:.3} s)",
            i + 1,
            s.total_s,
            s.simulate_s,
            s.train_s
        );
        setup_s.push(s.total_s);
        kept = Some(s);
    }
    Run {
        setup_s,
        setup: kept.expect("at least one set-up"),
        table: TableOne::default(),
        warmup: None,
        rounds: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    }
}

fn measure(w: &Workload, args: &Args, setups: usize) -> Run {
    let mut run = set_up(w, args.seed, setups);
    let t0 = Instant::now();
    let mut schedule = Schedule::start(w, args, &mut run);
    // Rounds continue while another fits in the measuring time, and
    // number at least the workload's minimum.
    let t_rounds = Instant::now();
    loop {
        let n = run.rounds.len();
        let per_round = t_rounds.elapsed().as_secs_f64() / n.max(1) as f64;
        let fits = t0.elapsed().as_secs_f64() + per_round <= args.seconds;
        if n >= w.min_repeats && !fits {
            break;
        }
        let before = cpu_ticks();
        let mut phases = Vec::new();
        if let (Some(sched), Some(spec)) = (&mut schedule, &w.serve) {
            phases.push(sched.phase(&mut run, sched.nominal));
            phases.push(sched.phase(&mut run, spec.burst));
        }
        let samples = workload::table_one_repeat(w, &run.setup, &mut run.table);
        let steal = match (before, cpu_ticks()) {
            (Some((s0, n0)), Some((s1, n1))) if n1 > n0 => (s1 - s0) as f64 / (n1 - n0) as f64,
            _ => f64::NAN,
        };
        run.rounds.push(Round {
            samples,
            phases,
            steal,
        });
    }
    run.attempted += run.table.attempted;
    run.failed += run.table.failed;
    run.failures.extend(run.table.failures.iter().cloned());
    eprintln!(
        "[perfbench] measured {:.2} s: {} rounds",
        t0.elapsed().as_secs_f64(),
        run.rounds.len()
    );
    run
}

/// The serving schedule of one run: windows drawn from the seed phase by
/// phase, at the workload's fixed rates.
struct Schedule {
    source: serve::WindowSource,
    t_out: usize,
    nominal: PhaseSpec,
}

impl Schedule {
    /// The schedule of a serving workload, after its unmeasured warm-up
    /// phase has run; `None` when the workload runs no server.
    fn start(w: &Workload, args: &Args, run: &mut Run) -> Option<Self> {
        let spec = w.serve.as_ref()?;
        let per_round =
            spec.nominal_rps * spec.nominal_share_of_run * args.seconds / w.min_repeats as f64;
        let t_out = w.scenario.t_out;
        let mut sched = Self {
            source: serve::WindowSource::new(&run.setup.archive, t_out, spec.traffic, args.seed),
            t_out,
            nominal: PhaseSpec {
                name: "nominal",
                rate_rps: spec.nominal_rps,
                count: (per_round.round() as usize).max(1),
            },
        };
        let warmup = sched.phase(run, spec.warmup);
        run.warmup = Some(warmup);
        Some(sched)
    }

    /// Run the schedule's next phase, then check its accounting and a
    /// sample of its responses.
    fn phase(&mut self, run: &mut Run, spec: PhaseSpec) -> PhaseResult {
        let name = spec.name;
        let set = self.source.next(&run.setup.archive, spec.count);
        let server = run
            .setup
            .server
            .as_ref()
            .expect("serving workload has a server");
        let mut r = serve::run_phase(server, &set, self.t_out, spec);
        run.attempted += r.sent as u64;
        run.failed += r.failed as u64;
        if !r.accounting_holds() {
            run.fail(format!(
                "{name}: completed + failed + rejected != submitted ({:?})",
                r.server
            ));
        }
        // Served responses must equal a direct forward of the same window
        // (batch composition may reorder f32 sums; cache hits carry f16
        // rounding on top).
        for (widx, value, from_cache) in std::mem::take(&mut r.kept) {
            let direct = run
                .setup
                .trained
                .predict_batch(&[set.windows[widx].as_slice()])
                .map(|mut v| v.remove(0));
            let rel = if from_cache { 1.0 / 1024.0 } else { 0.0 };
            let ok = match &direct {
                Ok(d) => serve::excess_diff(d, &value, rel) <= 1e-4,
                Err(_) => false,
            };
            if !ok {
                run.fail(format!(
                    "{name}: served window {widx} (cache hit: {from_cache}) differs from a direct forward"
                ));
            }
        }
        r
    }
}

// ------------------------------------------------------------ reporting

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn provenance(w: &Workload, args: &Args) -> Json {
    let backend = ctensor::backend::BackendChoice::default().resolve();
    let stamp = cbench::RunStamp::capture(backend.name());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut j = Json::new();
    j.raw("stamp", &format!("{{{}}}", stamp.json_fields()))
        .int("nproc", nproc as u64)
        .str("workload", w.name)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .obj("definition", &w.describe());
    j
}

struct Metrics {
    body: Json,
}

impl Metrics {
    fn new() -> Self {
        Self { body: Json::new() }
    }

    fn add(&mut self, name: &str, value: f64, unit: &str) {
        let mut m = Json::new();
        m.num("value", value).str("unit", unit);
        self.body.obj(name, &m);
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let mut j = Json::new();
    j.bool("correct", correct)
        .int("attempted", attempted.max(1))
        .int("failed", failed)
        .obj("metrics", &metrics.body);
    println!("{}", j.render());
}

/// The request rows `(p50_ms, p95_ms, capacity_rps, samples)`:
/// percentiles of the request latencies pooled over every round, and the
/// median over rounds of a completion rate. Serving: the nominal phases'
/// requests, and each burst's completions per second. Forecast: the one
/// caller's batch-1 episode requests, and the episodes a repeat's
/// requests complete per busy second.
fn request_rows(run: &Run) -> (f64, f64, f64, usize) {
    let (latency, capacity): (Vec<f64>, Vec<f64>) = if run.warmup.is_some() {
        (
            run.phases("nominal")
                .iter()
                .flat_map(|p| p.latency_ms.iter().copied())
                .collect(),
            run.phases("burst")
                .iter()
                .map(|p| p.completion_rps())
                .collect(),
        )
    } else {
        (
            run.table_samples(|s| &s.episode_ms),
            run.rounds
                .iter()
                .map(|r| {
                    let done: Vec<f64> = r
                        .samples
                        .episode_ms
                        .iter()
                        .copied()
                        .filter(|m| m.is_finite())
                        .collect();
                    done.len() as f64 / (done.iter().sum::<f64>() / 1e3)
                })
                .collect(),
        )
    };
    (
        percentile(&latency, 50.0),
        percentile(&latency, 95.0),
        median(&capacity),
        latency.len(),
    )
}

fn end_to_end_run(w: &Workload, args: &Args) -> bool {
    let run = measure(w, args, SETUPS);
    let t = &run.table;
    let forecast_s = run.table_samples(|s| &s.forecast_s);
    let forecast_int8_s = run.table_samples(|s| &s.forecast_int8_s);
    let roms_s = run.table_samples(|s| &s.roms_s);
    let roms_1tile_s = run.table_samples(|s| &s.roms_1tile_s);
    let (p50, p95, capacity, latency_samples) = request_rows(&run);
    let mut m = Metrics::new();
    m.add("setup_s", median(&run.setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("forecast_s", median(&forecast_s), "s");
    m.add("forecast_int8_s", median(&forecast_int8_s), "s");
    m.add("roms_s", median(&roms_s), "s");
    m.add("zeta_rmse_m", t.zeta_rmse_m, "m");
    m.add("p50_ms", p50, "ms");
    m.add("p95_ms", p95, "ms");
    m.add("capacity_rps", capacity, "1/s");

    let mut report = provenance(w, args);
    let steal: Vec<String> = run
        .rounds
        .iter()
        .map(|r| format!("{:.4}", r.steal))
        .collect();
    let mut rounds = Json::new();
    rounds
        .int("measured", run.rounds.len() as u64)
        .raw("steal_share", &format!("[{}]", steal.join(", ")));
    let mut samples = Json::new();
    samples
        .int("setup_s", run.setup_s.len() as u64)
        .int("forecast_s", forecast_s.len() as u64)
        .int("roms_s", roms_s.len() as u64)
        .int("latency", latency_samples as u64);
    let mut table1 = Json::new();
    table1
        .num("speedup_vs_roms", median(&roms_s) / median(&forecast_s))
        .num(
            "speedup_vs_roms_1tile",
            median(&roms_1tile_s) / median(&forecast_s),
        )
        .num("roms_1tile_s", median(&roms_1tile_s))
        .obj("roms_s_repeats", &quartile_json(&roms_s))
        .obj("ocean.roms_1tile_s_repeats", &quartile_json(&roms_1tile_s))
        .obj("forecast_s_repeats", &quartile_json(&forecast_s))
        .obj("forecast_int8_s_repeats", &quartile_json(&forecast_int8_s))
        .obj(
            "episode_ms",
            &quartile_json(&run.table_samples(|s| &s.episode_ms)),
        )
        .num("int8_first_episode_max_dzeta_m", t.int8_max_dzeta_m)
        .int("episodes", t.episodes as u64)
        .int("fallbacks", t.fallbacks as u64);
    let phase_list: Vec<String> = run
        .warmup
        .iter()
        .chain(run.rounds.iter().flat_map(|r| r.phases.iter()))
        .map(|p| {
            let mut j = Json::new();
            j.str("phase", p.name).obj("result", &p.json());
            j.render()
        })
        .collect();
    report
        .obj("rounds", &rounds)
        .obj("samples", &samples)
        .obj("table1", &table1)
        .raw("phases", &format!("[{}]", phase_list.join(", ")))
        .obj("setup_s_repeats", &quartile_json(&run.setup_s))
        .raw("failures", &json_list(&run.failures));
    println!("{{\"report\": {}}}", report.render());
    let correct = run.failed == 0;
    print_result(correct, run.attempted, run.failed, &m);
    correct
}

fn json_list(items: &[String]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|s| {
            let mut j = Json::new();
            j.str("failure", s);
            j.render()
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

// ------------------------------------------------------- per-layer run

type Row = (String, f64, &'static str);

/// Per-layer run. This process measures untraced and times the layers
/// with the benchmark's own timers; a child process with the
/// repository's `COASTAL_PROFILE`/`COASTAL_TRACE` hooks on supplies the
/// kernel and span rows. `trace.overhead_share` compares the same wall
/// time measured in both processes (see [`overhead_wall`]).
fn per_layer_run(w: &Workload, args: &Args) -> bool {
    let mut run = measure(w, args, 1);
    let composed = composed_forecasts(w, &run.setup);
    run.attempted += composed.operations;
    for f in &composed.failures {
        run.fail(f.clone());
    }
    let untraced_wall = overhead_wall(w, args, &mut run, &composed);

    let mut rows = layer_rows(&composed);
    let t = &run.table;
    let halo = median(&run.table_samples(|s| &s.halo_comm_s));
    let roms_s = median(&run.table_samples(|s| &s.roms_s));
    rows.extend([
        (
            "physics.fallback_share".to_string(),
            t.fallbacks as f64 / t.episodes.max(1) as f64,
            "ratio",
        ),
        (
            "ocean.roms_1tile_s".into(),
            median(&run.table_samples(|s| &s.roms_1tile_s)),
            "s",
        ),
        ("hpc.halo_comm_s".into(), halo, "s"),
        ("hpc.comm_share".into(), halo / roms_s, "ratio"),
        ("setup.simulate_s".into(), run.setup.simulate_s, "s"),
        ("setup.train_s".into(), run.setup.train_s, "s"),
        ("train.samples_per_s".into(), run.setup.samples_per_s, "1/s"),
    ]);
    rows.extend(serve_layer_rows(&run));

    let hooked = run_hooked_child(w, args);
    run.attempted += hooked.attempted;
    run.failed += hooked.failed;
    run.failures.extend(hooked.failures);
    rows.extend(hooked.rows);
    let overhead = hooked.wall.map_or(f64::NAN, |t| t / untraced_wall - 1.0);
    rows.push(("trace.overhead_share".into(), overhead, "ratio"));

    let mut m = Metrics::new();
    for (name, value, unit) in &rows {
        m.add(name, *value, unit);
    }
    let mut report = provenance(w, args);
    report
        .str(
            "overhead_wall",
            if w.serve.is_none() {
                "median layer-timed f32 forecast"
            } else {
                "median one-at-a-time request"
            },
        )
        .num("untraced_wall_s", untraced_wall)
        .num("hooked_wall_s", hooked.wall.unwrap_or(f64::NAN))
        .int("layer_timed_forecasts", LAYER_TIMED_FORECASTS as u64)
        .raw("failures", &json_list(&run.failures));
    println!("{{\"report\": {}}}", report.render());
    let correct = run.failed == 0;
    print_result(correct, run.attempted, run.failed, &m);
    correct
}

/// The wall time `trace.overhead_share` compares between the untraced
/// process and the hooked child, measured the same way in both: the
/// median layer-timed f32 forecast on `forecast`, and on a serving
/// workload the median of [`PROBE_REQUESTS`] distinct windows sent one
/// at a time, each after the previous response (a closed loop, so the
/// wall does not depend on an arrival rate or on queueing).
fn overhead_wall(w: &Workload, args: &Args, run: &mut Run, composed: &Composed) -> f64 {
    let Some(server) = run.setup.server.as_ref() else {
        return median(&composed.walls);
    };
    let t_out = w.scenario.t_out;
    let archive = &run.setup.archive;
    let set = serve::WindowSource::new(archive, t_out, Traffic::Distinct, !args.seed)
        .next(archive, PROBE_REQUESTS);
    let walls = serve::one_at_a_time(server, &set, t_out);
    let failed = walls.iter().filter(|s| !s.is_finite()).count();
    run.attempted += walls.len() as u64;
    if failed > 0 {
        run.failed += failed as u64;
        run.failures
            .push(format!("{failed} one-at-a-time probe requests failed"));
    }
    median(&walls)
}

/// What the hooked child reported.
struct Hooked {
    rows: Vec<Row>,
    wall: Option<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn run_hooked_child(w: &Workload, args: &Args) -> Hooked {
    let mut h = Hooked {
        rows: Vec::new(),
        wall: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let exe = std::env::current_exe().expect("own executable path");
    let spawned = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--hooked-child",
        ])
        .env("COASTAL_PROFILE", "1")
        .env("COASTAL_TRACE", "1")
        .stdout(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            h.failed += 1;
            h.failures.push(format!("spawn hooked child: {e}"));
            return h;
        }
    };
    let stdout = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, unit] => {
                let unit = match *unit {
                    "ms" => "ms",
                    "count" => "count",
                    _ => "s",
                };
                h.rows
                    .push((name.to_string(), value.parse().unwrap_or(f64::NAN), unit));
            }
            ["wall", v] => h.wall = v.parse().ok(),
            ["ops", a, b] => {
                h.attempted += a.parse::<u64>().unwrap_or(0);
                h.failed += b.parse::<u64>().unwrap_or(1);
            }
            ["failure", ..] => h.failures.push(format!("hooked child: {}", &line[8..])),
            _ => {}
        }
    }
    match child.wait() {
        Ok(status) if status.success() => {}
        Ok(status) => {
            h.failed += 1;
            h.failures
                .push(format!("hooked child exited with {status}"));
        }
        Err(e) => {
            h.failed += 1;
            h.failures.push(format!("wait for hooked child: {e}"));
        }
    }
    h
}

/// `(count, seconds)` of each kernel series in [`KERNELS`].
type KernelTotals = Vec<(u64, f64)>;

/// Counts and total seconds of the kernel series, read from the registry.
fn kernel_totals() -> KernelTotals {
    let snap = cobs::global().snapshot();
    KERNELS
        .iter()
        .map(|k| {
            snap.histograms
                .get(*k)
                .map_or((0, 0.0), |h| (h.count, h.sum))
        })
        .collect()
}

/// Layer-timed forecasts and their self-checks.
struct Composed {
    timers: Timers,
    walls: Vec<f64>,
    coverage: f64,
    episodes: usize,
    /// Kernel series `(count, seconds)` before and after the block.
    kernels: (KernelTotals, KernelTotals),
    operations: u64,
    failures: Vec<String>,
}

/// The forward and the hybrid forecast composed from public calls: the
/// forward must equal `SwinSurrogate::forward` bitwise and each f32
/// forecast must equal `HybridForecaster::forecast` bitwise; the layer
/// rows must cover 0.95..=1.0 of the f32 forecasts' wall time. One int8
/// forecast follows, so the quantized kernels show in the kernel rows.
fn composed_forecasts(w: &Workload, s: &Setup) -> Composed {
    let sc = &w.scenario;
    let start = workload::FORECAST_START;
    let ocean = sc.ocean_config(&s.grid, 1);
    let vcfg = VerifierConfig {
        threshold: ACCEPTED_THRESHOLD,
    };
    let mut failures = Vec::new();

    let window = &s.reference[start..=start + sc.t_out];
    let ep = cpipeline::encode_episode(window, &s.trained.stats, &s.trained.encode);
    let forward = |composed: bool| {
        let mut g = Graph::inference();
        let x3 = g.constant(ep.x3d.clone());
        let x2 = g.constant(ep.x2d.clone());
        let (a, b) = if composed {
            layers::forward_timed(&s.trained.model, &mut g, x3, x2, &mut Timers::default())
        } else {
            s.trained.model.forward(&mut g, x3, x2)
        };
        (g.value(a).clone(), g.value(b).clone())
    };
    let same = |x: &Tensor, y: &Tensor| {
        x.shape() == y.shape()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let ((a3, a2), (b3, b2)) = (forward(false), forward(true));
    if !(same(&a3, &b3) && same(&a2, &b2)) {
        failures.push("composed forward differs from SwinSurrogate::forward".to_string());
    }

    let reference = HybridForecaster::new(&s.grid, &s.trained, ocean.clone(), vcfg)
        .forecast(&s.reference, start, w.episodes)
        .map(|r| r.snapshots);
    if let Err(e) = &reference {
        failures.push(format!("reference forecast: {e}"));
    }

    let before = kernel_totals();
    let mut timers = Timers::default();
    let mut walls = Vec::new();
    let mut episodes = 0;
    for _ in 0..LAYER_TIMED_FORECASTS {
        let t0 = Instant::now();
        let r = layers::hybrid_forecast_timed(
            &s.grid,
            &s.trained,
            &ocean,
            vcfg,
            &s.reference,
            start,
            w.episodes,
            &mut timers,
        );
        walls.push(t0.elapsed().as_secs_f64());
        match r {
            Ok(f) => {
                episodes += f.episodes;
                if !reference
                    .as_ref()
                    .is_ok_and(|r| layers::bitwise_equal(&f.snapshots, r))
                {
                    failures
                        .push("composed forecast differs from HybridForecaster::forecast".into());
                }
            }
            Err(e) => failures.push(format!("layer-timed forecast: {e}")),
        }
    }
    let coverage = timers.covered_s() / walls.iter().sum::<f64>();
    if !(0.95..=1.0).contains(&coverage) {
        failures.push(format!(
            "layer rows cover {coverage:.4} of the forecast wall time (want 0.95..=1.0)"
        ));
    }
    if let Err(e) = layers::hybrid_forecast_timed(
        &s.grid,
        &s.int8,
        &ocean,
        vcfg,
        &s.reference,
        start,
        w.episodes,
        &mut Timers::default(),
    ) {
        failures.push(format!("layer-timed int8 forecast: {e}"));
    }
    let after = kernel_totals();
    Composed {
        timers,
        walls,
        coverage,
        episodes,
        kernels: (before, after),
        operations: 3 + LAYER_TIMED_FORECASTS as u64 + 1,
        failures,
    }
}

/// Surrogate rows per forward, pipeline and verify rows per episode, and
/// the share of wall time the rows cover.
fn layer_rows(c: &Composed) -> Vec<Row> {
    let forwards = c.timers.calls("surrogate.embed").max(1) as f64;
    let episodes = c.episodes.max(1) as f64;
    let mut rows = Vec::new();
    for row in [
        "surrogate.embed",
        "surrogate.stage0",
        "surrogate.stage1",
        "surrogate.merge0",
        "surrogate.decoder",
        "surrogate.head",
    ] {
        rows.push((
            format!("{row}_ms"),
            c.timers.total_s(row) * 1e3 / forwards,
            "ms",
        ));
    }
    for row in [
        "pipeline.encode",
        "pipeline.stack",
        "pipeline.decode",
        "physics.verify",
    ] {
        rows.push((
            format!("{row}_ms"),
            c.timers.total_s(row) * 1e3 / episodes,
            "ms",
        ));
    }
    rows.push(("trace.layer_coverage".into(), c.coverage, "ratio"));
    rows
}

/// The hooked child: kernel rows from the profiling hook over the
/// layer-timed forecasts, span rows from the request traces of a few
/// nominal phases, and the wall time [`overhead_wall`] compares. It runs
/// no Table I repeats.
fn hooked_child(w: &Workload, args: &Args) -> bool {
    let mut run = set_up(w, args.seed, 1);
    let composed = composed_forecasts(w, &run.setup);
    for f in &composed.failures {
        run.fail(f.clone());
    }
    let (before, after) = &composed.kernels;
    for ((name, (c0, s0)), (c1, s1)) in KERNELS.iter().zip(before).zip(after) {
        println!("metric {name}.ms {} ms", (s1 - s0) * 1e3);
        println!("metric {name}.calls {} count", c1 - c0);
    }
    if let Some(mut sched) = Schedule::start(w, args, &mut run) {
        for _ in 0..CHILD_NOMINAL_PHASES {
            let phase = sched.phase(&mut run, sched.nominal);
            run.rounds.push(Round {
                samples: Samples::default(),
                phases: vec![phase],
                steal: f64::NAN,
            });
        }
    }
    let pooled = |f: fn(&PhaseResult) -> &Vec<f64>| -> f64 {
        let v: Vec<f64> = run
            .phases("nominal")
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 50.0)
        }
    };
    println!("metric queue.wait {} ms", pooled(|p| &p.queue_wait_ms));
    println!(
        "metric replica.predict_batch {} ms",
        pooled(|p| &p.predict_batch_ms)
    );
    let wall = overhead_wall(w, args, &mut run, &composed);
    println!("wall {wall}");
    for f in &run.failures {
        println!("failure {f}");
    }
    println!("ops {} {}", run.attempted + composed.operations, run.failed);
    run.failed == 0
}

/// Serving rows measured without tracing: submit time, batch size, hit
/// and coalesced shares over the measured rounds' requests, and the
/// generator's lateness at the nominal rate; zero when the workload runs
/// no server.
fn serve_layer_rows(run: &Run) -> Vec<Row> {
    let measured: Vec<&PhaseResult> = run.rounds.iter().flat_map(|r| r.phases.iter()).collect();
    let sent: usize = measured.iter().map(|p| p.sent).sum();
    let n = sent.max(1) as f64;
    let submit_us = measured
        .iter()
        .map(|p| p.submit_mean_us * p.sent as f64)
        .sum::<f64>()
        / n;
    let hits: usize = measured.iter().map(|p| p.hits).sum();
    let coalesced: usize = measured.iter().map(|p| p.coalesced).sum();
    let late = run
        .phases("nominal")
        .iter()
        .map(|p| p.late_max_ms)
        .fold(0.0, f64::max);
    let (items, batches) = measured
        .iter()
        .flat_map(|p| p.server.batch_histogram.iter())
        .fold((0u64, 0u64), |(i, b), &(size, n)| {
            (i + size as u64 * n, b + n)
        });
    let batch_mean = if batches == 0 {
        0.0
    } else {
        items as f64 / batches as f64
    };
    vec![
        ("serve.submit_us".into(), submit_us, "us"),
        ("serve.batch_mean".into(), batch_mean, "count"),
        ("serve.cache.hit_share".into(), hits as f64 / n, "ratio"),
        (
            "serve.coalesced_share".into(),
            coalesced as f64 / n,
            "ratio",
        ),
        ("generator.late_ms".into(), late, "ms"),
    ]
}
