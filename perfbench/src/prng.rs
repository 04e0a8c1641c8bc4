//! The benchmark's own PRNG: splitmix64 to expand the seed, xorshift64*
//! to draw. Nothing here comes from the repo's `rand` shim, so no engine
//! PR can change the generated inputs.

/// One step of splitmix64 (Steele/Lea/Flood); also used to derive
/// independent stream seeds from `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for stream `stream` of seed `seed`; distinct streams of
    /// one seed are independent (graph, operations, …).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let a = splitmix64(&mut s);
        Rng(a | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); multiply-shift, bias < 2^-32 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index in `0..n` skewed towards 0: `floor(n * u^power)`. `power = 1`
    /// is uniform; larger powers concentrate mass on low indexes (the
    /// "popular" end of a population).
    pub fn skewed(&mut self, n: usize, power: f64) -> usize {
        ((n as f64 * self.unit().powf(power)) as usize).min(n - 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_streams_differ() {
        let draws = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            [(); 8].map(|()| r.next_u64())
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        assert_ne!(draws(7, 1), draws(8, 1));
    }

    #[test]
    fn below_and_skewed_stay_in_range() {
        let mut r = Rng::new(1, 0);
        let mut low = 0;
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let s = r.skewed(100, 3.0);
            assert!(s < 100);
            if s < 10 {
                low += 1;
            }
        }
        // u^3 < 0.1 with probability 0.1^(1/3) ≈ 0.46.
        assert!(low > 4_000 && low < 5_200, "{low}");
    }
}
