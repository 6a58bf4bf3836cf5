//! Seeded input generation. Every input of a run comes from one
//! [`Rng`] stream per workload, so a seed fixes the whole op list.

/// SplitMix64: tiny, fast, and good enough to pick sizes and orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `salt` so that two
    /// workloads run with the same seed do not share draws.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` points in `[0, 1)`, one uniform draw in each of `n` equal
    /// strata, in shuffled order. Sizes drawn this way cover their range
    /// evenly for every seed, so the total work of an op list — and its
    /// latency quantiles — barely move with the seed, while each op's
    /// size is still continuous.
    pub fn strata(&mut self, n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|j| (j as f64 + self.unit()) / n as f64)
            .collect();
        self.shuffle(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_decorrelate() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, "native");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, "native");
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, "replay").next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn strata_cover_every_stratum_once() {
        let mut r = Rng::new(3, "t");
        let mut v = r.strata(50);
        v.sort_by(f64::total_cmp);
        for (j, u) in v.iter().enumerate() {
            assert!(*u >= j as f64 / 50.0 && *u < (j + 1) as f64 / 50.0);
        }
    }
}
