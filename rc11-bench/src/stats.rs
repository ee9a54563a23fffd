//! Summary statistics and the seeded generator every workload draws from.

/// The median of `xs` (the mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A latency tail under the benchmark's rule: the highest of the
/// standard percentiles [`TAIL_PCTS`] that still has at least
/// [`TAIL_BEYOND`] samples beyond it, reported together with that
/// percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The percentile it was taken at (100 = the maximum).
    pub pct: f64,
    /// Samples the tail was taken over.
    pub n: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_PCTS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The tail of `xs`. With fewer than `2 × TAIL_BEYOND` samples not even
/// the median has enough beyond it; the maximum is reported at 100% and
/// the caller sees the small `n` next to it.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    for pct in TAIL_PCTS {
        // Nearest-rank: the sample at rank ⌈pct·n⌉ has n − rank beyond it.
        // (The epsilon keeps 99.9% of 10 000 at rank 9 990, not 9 991.)
        let rank = ((pct / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
        if n - rank >= TAIL_BEYOND {
            return Tail {
                value: s[rank - 1],
                pct,
                n,
            };
        }
    }
    Tail {
        value: s[n - 1],
        pct: 100.0,
        n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// SplitMix64: tiny, seedable, and identical on every platform, so one
/// seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, optionally split into an independent
    /// `stream` (the same seed and stream give the same sequence).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
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
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn beyond(xs: &[f64], t: &Tail) -> usize {
        xs.iter().filter(|&&x| x > t.value).count()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p99 has 1 beyond, p90 has exactly 10.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.pct, t.n), (90.0, 90.0, 100));
        assert_eq!(beyond(&xs, &t), TAIL_BEYOND);
        // 99 samples: p90 has only 9 beyond, so the median is the tail.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.pct, 50.0);
        assert!(beyond(&xs, &t) >= TAIL_BEYOND);
    }

    #[test]
    fn tail_moves_up_with_more_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.pct), (990.0, 99.0));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 99.9);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&xs).pct,
            50.0,
            "twenty samples: the median has ten beyond"
        );
        let few = [5.0, 1.0, 9.0];
        let t = tail(&few);
        assert_eq!((t.value, t.pct, t.n), (9.0, 100.0, 3));
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        let d: Vec<u64> = (0..5)
            .scan(Rng::new(8, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
