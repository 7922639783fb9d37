//! Everything random in the benchmark comes from here, so `--seed`
//! alone decides every request: a splitmix64 generator, a weighted
//! (and Zipf) sampler and the FNV-1a hash that fingerprints a request stream.
//! Owned rather than borrowed from the `rand` shim so that a change to
//! the shim cannot silently change the workloads.

/// splitmix64: tiny, statistically sound for workload picks.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent generator for sub-stream `stream` (one per
    /// client, one per purpose), so adding draws to one stream never
    /// shifts another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        Rng::new(r.next_u64())
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// A discrete distribution over `0..n` given by one weight per index.
#[derive(Clone, Debug)]
pub struct Weighted {
    cdf: Vec<f64>,
}

impl Weighted {
    pub fn new(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Weighted { cdf }
    }

    /// Zipf over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
    pub fn zipf(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        Weighted::new(&weights)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// 64-bit FNV-1a over everything written to it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Write a string plus a terminator, so `["ab", "c"]` and
    /// `["a", "bc"]` hash apart.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xFF]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_forks_apart() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 0).next_u64(), Rng::fork(7, 1).next_u64());
        assert_ne!(Rng::fork(7, 0).next_u64(), Rng::fork(8, 0).next_u64());
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn zipf_favours_low_ranks_in_proportion() {
        let z = Weighted::zipf(23, 1.0);
        let mut r = Rng::new(42);
        let mut hits = [0u32; 23];
        for _ in 0..100_000 {
            hits[z.sample(&mut r)] += 1;
        }
        // P(rank 0) = 1/H_23 ≈ 0.268; rank 1 half of that.
        let p0 = f64::from(hits[0]) / 100_000.0;
        assert!((p0 - 0.268).abs() < 0.01, "{p0}");
        let ratio = f64::from(hits[0]) / f64::from(hits[1]);
        assert!((ratio - 2.0).abs() < 0.15, "{ratio}");
        assert!(hits[22] > 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_F739_67E8);
        let (mut x, mut y) = (Fnv::new(), Fnv::new());
        x.write_str("ab");
        x.write_str("c");
        y.write_str("a");
        y.write_str("bc");
        assert_ne!(x.finish(), y.finish());
    }
}
