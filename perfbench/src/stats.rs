//! Small statistics and measurement helpers shared by every workload.

use std::time::{Duration, Instant};

/// splitmix64 finaliser: derives independent sub-seeds from the workload seed, so
/// one `--seed` fixes every generated input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random stream over [`mix`].
pub struct Rng(u64, u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed, stream.wrapping_mul(0x1000_0000))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.1 += 1;
        mix(self.0, self.1)
    }

    /// Uniform index in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `samples` (`q` in 0..=1); `None` when fewer than ten
/// samples lie beyond it, the rule under which a percentile is reported at all.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= 10).then(|| sorted[rank - 1])
}

/// Median of `samples` (lower middle for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Geometric mean of positive ratios; 0 when empty.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: u32 = 7;

/// Set-up timings spread over a run: the first before the measured loop, the
/// rest between rounds at even intervals of the time budget, so their median
/// spans the host's contention phases like the measured requests do.
pub struct SetupTimes {
    samples: Vec<f64>,
    budget: Duration,
}

impl SetupTimes {
    pub fn new(budget: Duration) -> SetupTimes {
        SetupTimes {
            samples: Vec::new(),
            budget,
        }
    }

    /// Whether the next repetition is due `elapsed` into the measured loop.
    pub fn due(&self, elapsed: Duration) -> bool {
        let done = self.samples.len() as u32;
        done < SETUP_REPS && elapsed >= self.budget * done / SETUP_REPS
    }

    /// Times one set-up repetition.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = setup();
        self.samples.push(start.elapsed().as_secs_f64());
        value
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}
