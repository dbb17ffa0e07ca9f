//! Sample summaries: median, quartiles and the tail percentile, with the
//! sample count and how many samples lie beyond the percentile.

/// The spread of one metric's samples within a run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    /// Samples strictly above `p90`.
    pub beyond_p90: usize,
    pub p99: f64,
    /// Samples strictly above `p99`.
    pub beyond_p99: usize,
}

/// Linear-interpolation percentile of sorted samples, `p` in `[0, 1]`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p90 = percentile(&sorted, 0.9);
        let p99 = percentile(&sorted, 0.99);
        Some(Summary {
            n: sorted.len(),
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            q3: percentile(&sorted, 0.75),
            p90,
            beyond_p90: sorted.iter().filter(|&&v| v > p90).count(),
            p99,
            beyond_p99: sorted.iter().filter(|&&v| v > p99).count(),
        })
    }
}

/// Linear-interpolation quantile `p` in `[0, 1]` of `samples` (0 when
/// empty).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Arithmetic mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Zipf(1.0) sampler over ranks `0..n`: rank `r` has weight `1/(r+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// SplitMix64: the benchmark's own generator, so its inputs depend only
/// on the seed and never on the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for the sizes
    /// used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` uniform binary digits.
    pub fn binary_word(&mut self, k: usize) -> Vec<u8> {
        (0..k).map(|_| (self.next_u64() & 1) as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(s.beyond_p99, 1);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert!(
            (quantile(&[4.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 0.9) - 9.1).abs()
                < 1e-12
        );
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(64);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 64];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[63]);
    }
}
