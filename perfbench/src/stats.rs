//! Order statistics, seeded generators and a minimal JSON writer.

/// Quartiles `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here
/// and in the tools that compare runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            // CPython's algorithm verbatim, including its integer
            // arithmetic and its extrapolation on two samples.
            let m = n as i64 + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), median_sorted(&v), q(3))
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        f64::NAN
    } else {
        median_sorted(&v)
    }
}

/// Nearest-rank percentile (`p` in 0..=100). Infinite samples sort last,
/// so a failed request counts as missing every latency limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Deterministic 64-bit LCG: every input the benchmark draws is a pure
/// function of the workload seed.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        let mut g = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_f64() * n as f64) as usize).min(n - 1)
    }
}

/// Zipf(s) sampler over ranks `0..d` by inverse CDF; rank 0 is the most
/// popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(d: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..d)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Lcg) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// An insertion-ordered JSON object built by hand (the workspace has no
/// serializer that runs offline).
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&format!("\"{}\": ", escape(k)));
    }

    /// A number; non-finite values have no JSON literal and become `null`.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            self.body.push_str(&format!("{v}"));
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.body.push_str(&v.to_string());
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.body.push_str(&format!("\"{}\"", escape(v)));
        self
    }

    /// Splice already-rendered JSON (an object or array) under `k`.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.body.push_str(v);
        self
    }

    pub fn obj(&mut self, k: &str, v: &Json) -> &mut Self {
        self.raw(k, &v.render())
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `{"n": …, "q1": …, "median": …, "q3": …}` for per-repeat samples.
pub fn quartile_json(values: &[f64]) -> Json {
    let (q1, med, q3) = quartiles(values);
    let mut j = Json::new();
    j.int("n", values.len() as u64)
        .num("q1", q1)
        .num("median", med)
        .num("q3", q3);
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_counts_failures_as_misses() {
        let v = [1.0, 2.0, f64::INFINITY, 3.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert!(percentile(&v, 95.0).is_infinite());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(32, 1.0);
        let mut rng = Lcg::new(7);
        let draws: Vec<usize> = (0..4000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tail = draws.iter().filter(|&&r| r == 31).count();
        assert!(top > 10 * tail.max(1), "top {top} tail {tail}");
    }
}
