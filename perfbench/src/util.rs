//! Small helpers: a seeded generator, order statistics, and process
//! resource readings from `/proc`.

use std::time::Duration;

/// SplitMix64: every benchmark input is drawn from one of these, seeded
/// from `--seed`, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// and probes sharing a seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-like sampler over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Weights for `n` ranks at exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of `v`; `NaN` when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Samples per window of [`windowed_p99`]: enough for twenty beyond
/// each window's p99.
pub const P99_WINDOW: usize = 2000;

/// The median, over consecutive windows of [`P99_WINDOW`] samples in
/// arrival order, of each window's p99: one stall moves one window,
/// not the run. Fewer samples than one window give the plain p99.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let p99s: Vec<f64> = samples.chunks_exact(P99_WINDOW).map(|w| percentile(w, 99.0)).collect();
    if p99s.is_empty() {
        return percentile(samples, 99.0);
    }
    median(&p99s)
}

/// Host CPU time stolen by the hypervisor, and all CPU time, in clock
/// ticks since boot (`/proc/stat`).
pub fn host_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0.0), f.iter().sum())
}

/// Percent of host CPU time stolen since `from` (a [`host_ticks`]
/// reading).
pub fn steal_pct_since(from: (f64, f64)) -> f64 {
    let now = host_ticks();
    100.0 * (now.0 - from.0) / (now.1 - from.1).max(1.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time (user + system, every thread) in milliseconds,
/// from `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hardware threads this host exposes.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was taken from, read from `.git` without
/// spawning a process; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(8, 1), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = Rng::new(1, 2);
        let mut hist = [0usize; 100];
        for _ in 0..10_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[10] && hist[10] > hist[90]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn windowed_p99_shrugs_off_one_stall() {
        let mut v: Vec<f64> = (0..5 * P99_WINDOW).map(|i| (i % 100) as f64).collect();
        let calm = windowed_p99(&v);
        for x in &mut v[..100] {
            *x = 1e6;
        }
        assert_eq!(windowed_p99(&v), calm);
        assert_eq!(percentile(&v[..10], 99.0), windowed_p99(&v[..10]));
    }
}
