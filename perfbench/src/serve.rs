//! Open-loop load generator for `ForecastServer`.
//!
//! The schedule (due times and windows) is built from the seed before a
//! phase starts. One pacing thread submits each request at its due time
//! and one collector thread waits for the responses, so the load uses
//! two threads of its own. Latency runs from the due time, so a stall in
//! the generator or the server counts against every request it delays.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cocean::Snapshot;
use cserve::{ForecastRequest, ForecastServer, ResponseHandle, ServeError, ServeMetrics};

use crate::stats::{percentile, Json, Lcg, Zipf};

/// Traffic mix of a serving workload.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// Every request is a window no other request uses.
    Distinct,
    /// Requests draw zipf(`s`) over a fixed set of `windows` windows.
    Zipf { windows: usize, s: f64 },
}

/// One phase of the schedule: `count` requests evenly spaced at
/// `rate_rps`.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    pub name: &'static str,
    pub rate_rps: f64,
    pub count: usize,
}

/// Responses kept per phase and kind (cache hit or computed) for the
/// equality check against a direct forward.
const KEEP_PER_KIND: usize = 3;

/// The windows of one phase and the order its requests submit them in.
pub struct WindowSet {
    pub windows: Vec<Vec<Snapshot>>,
    pub order: Vec<usize>,
}

/// Draws each phase's windows from the seed, phase after phase: distinct
/// traffic makes a fresh window for every request, zipf traffic draws
/// from one fixed set. A window is `t_out + 1` consecutive archive
/// snapshots whose initial free surface carries a small seeded offset,
/// so each window has its own cache key.
pub struct WindowSource {
    traffic: Traffic,
    t_out: usize,
    rng: Lcg,
    shared: Vec<Vec<Snapshot>>,
}

impl WindowSource {
    pub fn new(archive: &[Snapshot], t_out: usize, traffic: Traffic, seed: u64) -> Self {
        let mut src = Self {
            traffic,
            t_out,
            rng: Lcg::new(seed),
            shared: Vec::new(),
        };
        if let Traffic::Zipf { windows, .. } = traffic {
            src.shared = (0..windows).map(|_| src.window(archive)).collect();
        }
        src
    }

    fn window(&mut self, archive: &[Snapshot]) -> Vec<Snapshot> {
        let s = self.rng.below(archive.len() - self.t_out);
        let mut w = archive[s..=s + self.t_out].to_vec();
        let eps = 1e-3 * (self.rng.next_f64() as f32 + 0.5);
        for z in w[0].zeta.iter_mut().filter(|z| **z != 0.0) {
            *z += eps;
        }
        w
    }

    /// The next phase's `count` requests.
    pub fn next(&mut self, archive: &[Snapshot], count: usize) -> WindowSet {
        match self.traffic {
            Traffic::Distinct => WindowSet {
                windows: (0..count).map(|_| self.window(archive)).collect(),
                order: (0..count).collect(),
            },
            Traffic::Zipf { windows, s } => {
                let z = Zipf::new(windows, s);
                WindowSet {
                    windows: self.shared.clone(),
                    order: (0..count).map(|_| z.sample(&mut self.rng)).collect(),
                }
            }
        }
    }
}

/// What one phase measured.
pub struct PhaseResult {
    pub name: &'static str,
    pub offered_rps: f64,
    pub sent: usize,
    pub succeeded: usize,
    pub failed: usize,
    /// Latency from the due time per request, ms; failures are infinite.
    pub latency_ms: Vec<f64>,
    /// First due time to last completion, s.
    pub wall_s: f64,
    /// Worst lateness of a submit against its due time, ms.
    pub late_max_ms: f64,
    /// Mean time spent inside `submit()`, µs.
    pub submit_mean_us: f64,
    pub hits: usize,
    pub coalesced: usize,
    /// Server counters over this phase.
    pub server: ServeMetrics,
    /// Kept `(window index, response, from cache)` for the equality check.
    pub kept: Vec<(usize, Arc<Vec<Snapshot>>, bool)>,
    /// Span durations (ms) by name, from the request traces when tracing
    /// is on.
    pub queue_wait_ms: Vec<f64>,
    pub predict_batch_ms: Vec<f64>,
}

impl PhaseResult {
    /// Completion rate over the phase.
    pub fn completion_rps(&self) -> f64 {
        self.succeeded as f64 / self.wall_s
    }

    /// `completed + failed + rejected == submitted` on the server's own
    /// counters, and the server saw every request the generator sent.
    pub fn accounting_holds(&self) -> bool {
        let m = &self.server;
        m.completed + m.failed + m.rejected == m.submitted && m.submitted == self.sent as u64
    }

    pub fn json(&self) -> Json {
        let mut j = Json::new();
        j.num("offered_rps", self.offered_rps)
            .int("sent", self.sent as u64)
            .int("succeeded", self.succeeded as u64)
            .int("failed", self.failed as u64)
            .num("p50_ms", percentile(&self.latency_ms, 50.0))
            .num("p95_ms", percentile(&self.latency_ms, 95.0))
            .num("completion_rps", self.completion_rps())
            .num("wall_s", self.wall_s)
            .num("generator_late_max_ms", self.late_max_ms)
            .num("submit_mean_us", self.submit_mean_us)
            .int("cache_hits", self.hits as u64)
            .int("coalesced", self.coalesced as u64)
            .int("server_submitted", self.server.submitted)
            .int("server_completed", self.server.completed)
            .int("server_failed", self.server.failed)
            .int("server_rejected", self.server.rejected)
            .num("server_batch_mean", self.server.mean_batch_size())
            .bool("accounting_holds", self.accounting_holds());
        j
    }
}

struct Submitted {
    index: usize,
    due: Instant,
    returned: Instant,
    outcome: Result<ResponseHandle, ServeError>,
    trace: Option<cobs::TraceHandle>,
}

/// Run one open-loop phase against `server`.
pub fn run_phase(
    server: &ForecastServer,
    set: &WindowSet,
    t_out: usize,
    spec: PhaseSpec,
) -> PhaseResult {
    let order = &set.order;
    let before = server.metrics();
    let period = Duration::from_secs_f64(1.0 / spec.rate_rps);
    let traced = cobs::trace::enabled();
    let (tx, rx) = mpsc::channel::<Submitted>();

    let mut late_max = Duration::ZERO;
    let mut submit_total = Duration::ZERO;
    let t0 = Instant::now() + Duration::from_millis(5);
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, order));
        for (i, &w) in order.iter().enumerate() {
            // Built just before its due time, so the generator holds no
            // more than one request of its own at a time.
            let req = ForecastRequest::new(0, set.windows[w].clone(), t_out);
            let due = t0 + period * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let start = Instant::now();
            late_max = late_max.max(start.saturating_duration_since(due));
            let outcome = server.submit(req);
            let returned = Instant::now();
            submit_total += returned - start;
            let trace = if traced {
                outcome
                    .as_ref()
                    .ok()
                    .and_then(ResponseHandle::trace_id)
                    .and_then(cobs::trace::lookup)
            } else {
                None
            };
            tx.send(Submitted {
                index: i,
                due,
                returned,
                outcome,
                trace,
            })
            .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let after = server.metrics();

    let sent = order.len();
    let failed = collected
        .latency_ms
        .iter()
        .filter(|l| l.is_infinite())
        .count();
    let (mut queue_wait_ms, mut predict_batch_ms) = (Vec::new(), Vec::new());
    for t in &collected.traces {
        let json = t.to_json();
        queue_wait_ms.extend(span_ms(&json, "queue.wait"));
        predict_batch_ms.extend(span_ms(&json, "replica.predict_batch"));
    }
    PhaseResult {
        name: spec.name,
        offered_rps: spec.rate_rps,
        sent,
        succeeded: sent - failed,
        failed,
        latency_ms: collected.latency_ms,
        wall_s: (collected.last_done - t0).as_secs_f64(),
        late_max_ms: late_max.as_secs_f64() * 1e3,
        submit_mean_us: submit_total.as_secs_f64() * 1e6 / sent as f64,
        hits: collected.hits,
        coalesced: collected.coalesced,
        server: delta(&before, &after),
        kept: collected.kept,
        queue_wait_ms,
        predict_batch_ms,
    }
}

/// Send the set's requests one at a time, each after the previous
/// response: each request's wall time in seconds, infinite when it failed.
pub fn one_at_a_time(server: &ForecastServer, set: &WindowSet, t_out: usize) -> Vec<f64> {
    set.order
        .iter()
        .map(|&w| {
            let req = ForecastRequest::new(0, set.windows[w].clone(), t_out);
            let t = Instant::now();
            match server.submit(req).map(ResponseHandle::wait_shared) {
                Ok(Ok(_)) => t.elapsed().as_secs_f64(),
                _ => f64::INFINITY,
            }
        })
        .collect()
}

struct Collected {
    latency_ms: Vec<f64>,
    last_done: Instant,
    hits: usize,
    coalesced: usize,
    kept: Vec<(usize, Arc<Vec<Snapshot>>, bool)>,
    traces: Vec<cobs::TraceHandle>,
}

/// Wait for responses in submit order. A cache hit is complete when
/// `submit()` returns; any other response is timed when its wait returns,
/// so one that finishes before an earlier request is timed no earlier
/// than that request (an upper bound on its latency).
fn collect(rx: mpsc::Receiver<Submitted>, order: &[usize]) -> Collected {
    let mut c = Collected {
        latency_ms: vec![f64::INFINITY; order.len()],
        last_done: Instant::now(),
        hits: 0,
        coalesced: 0,
        kept: Vec::new(),
        traces: Vec::new(),
    };
    let (mut kept_hits, mut kept_computed) = (0, 0);
    for s in rx {
        let Ok(handle) = s.outcome else {
            continue;
        };
        let from_cache = handle.from_cache();
        c.hits += usize::from(from_cache);
        c.coalesced += usize::from(handle.coalesced());
        let result = handle.wait_shared();
        let done = if from_cache {
            s.returned
        } else {
            Instant::now()
        };
        c.last_done = c.last_done.max(done);
        if let Some(t) = s.trace {
            c.traces.push(t);
        }
        let Ok(value) = result else {
            continue;
        };
        c.latency_ms[s.index] = done.saturating_duration_since(s.due).as_secs_f64() * 1e3;
        let kept = if from_cache {
            &mut kept_hits
        } else {
            &mut kept_computed
        };
        if *kept < KEEP_PER_KIND {
            *kept += 1;
            c.kept.push((order[s.index], value, from_cache));
        }
    }
    c
}

fn delta(a: &ServeMetrics, b: &ServeMetrics) -> ServeMetrics {
    let mut d = b.clone();
    d.submitted -= a.submitted;
    d.completed -= a.completed;
    d.failed -= a.failed;
    d.rejected -= a.rejected;
    d.coalesced -= a.coalesced;
    d.cache_hits -= a.cache_hits;
    d.cache_misses -= a.cache_misses;
    let before: std::collections::BTreeMap<usize, u64> =
        a.batch_histogram.iter().copied().collect();
    for (size, n) in &mut d.batch_histogram {
        *n -= before.get(size).copied().unwrap_or(0);
    }
    d
}

/// Durations (ms) of every closed span called `name` in a trace's JSON
/// (`"name": "…", "start_us": a, "end_us": b`).
fn span_ms(json: &str, name: &str) -> Vec<f64> {
    let needle = format!("\"name\": \"{name}\", ");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let field = |key: &str| -> Option<f64> {
            let k = rest.find(key)? + key.len();
            let end = rest[k..].find([',', '}'])? + k;
            rest[k..end].trim().parse().ok()
        };
        if let (Some(a), Some(b)) = (field("\"start_us\": "), field("\"end_us\": ")) {
            out.push((b - a) * 1e-3);
        }
    }
    out
}

/// Largest difference between two trajectories beyond `rel` of the
/// reference value: 0 when every value is within, infinite when the
/// lengths differ or a difference is not finite.
pub fn excess_diff(reference: &[Snapshot], got: &[Snapshot], rel: f32) -> f32 {
    if reference.len() != got.len() {
        return f32::INFINITY;
    }
    let mut excess = 0.0f32;
    for (a, b) in reference.iter().zip(got) {
        for (x, y) in [(&a.zeta, &b.zeta), (&a.u, &b.u), (&a.v, &b.v), (&a.w, &b.w)] {
            if x.len() != y.len() {
                return f32::INFINITY;
            }
            for (p, q) in x.iter().zip(y.iter()) {
                let d = (p - q).abs();
                if !d.is_finite() {
                    return f32::INFINITY;
                }
                excess = excess.max(d - rel * p.abs());
            }
        }
    }
    excess
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excess_diff_flags_nan_and_length() {
        let snap = |z: f32| Snapshot {
            time: 0.0,
            nz: 1,
            ny: 1,
            nx: 1,
            zeta: vec![z],
            u: vec![0.0],
            v: vec![0.0],
            w: vec![0.0],
        };
        assert_eq!(excess_diff(&[snap(1.0)], &[snap(1.0)], 0.0), 0.0);
        assert!(excess_diff(&[snap(1.0)], &[snap(1.0005)], 1e-3) <= 0.0);
        assert!(excess_diff(&[snap(1.0)], &[snap(f32::NAN)], 1e-3).is_infinite());
        assert!(excess_diff(&[snap(1.0)], &[], 1e-3).is_infinite());
    }

    #[test]
    fn span_durations_parse_from_trace_json() {
        let json = "{\"trace_id\": \"1\", \"label\": \"forecast\", \"spans\": [\
            {\"id\": 0, \"parent\": null, \"name\": \"forecast\", \"start_us\": 0.0, \"end_us\": 900.0}, \
            {\"id\": 1, \"parent\": 0, \"name\": \"queue.wait\", \"start_us\": 10.0, \"end_us\": 510.0}, \
            {\"id\": 2, \"parent\": 0, \"name\": \"replica.predict_batch.shared\", \"start_us\": 1.0, \"end_us\": 2.0}, \
            {\"id\": 3, \"parent\": 0, \"name\": \"replica.predict_batch\", \"start_us\": 510.0, \"end_us\": 890.0}]}";
        assert_eq!(span_ms(json, "queue.wait"), vec![0.5]);
        assert_eq!(span_ms(json, "replica.predict_batch"), vec![0.38]);
    }
}
