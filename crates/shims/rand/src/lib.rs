//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this local crate
//! provides exactly the API surface the workspace uses: a seedable,
//! deterministic [`rngs::StdRng`] plus the rand-0.9-style
//! [`RngExt::random`] / [`RngExt::random_range`] extension methods.
//!
//! Determinism is the only contract: the same seed always yields the same
//! stream (xoshiro256++ seeded through SplitMix64). Statistical quality is
//! more than sufficient for synthetic data generation; this is *not* a
//! cryptographic generator.

use std::ops::{Range, RangeInclusive};

/// Construction of a generator from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit output interface.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic default generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the 256-bit state, the
            // initialization the xoshiro authors recommend.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

/// Types producible uniformly from raw bits (the `random::<T>()` family).
pub trait FromRng: Sized {
    /// Draw one uniform value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges samplable into a value of `T` (the `random_range` family).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    ///
    /// # Panics
    /// Panics when the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every value is fair.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        self.start + f64::from_rng(rng) * (self.end - self.start)
    }
}

/// The user-facing extension methods, blanket-implemented for every
/// generator (mirrors `rand::Rng`).
pub trait RngExt: RngCore {
    /// Uniform value of `T` (`f64` values land in `[0, 1)`).
    #[inline]
    fn random<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform value drawn from `range`.
    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: i64 = r.random_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
            let u: usize = r.random_range(0usize..7);
            assert!(u < 7);
            let f: f64 = r.random_range(1.0f64..2.0);
            assert!((1.0..2.0).contains(&f));
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn unit_float_covers_interval() {
        let mut r = StdRng::seed_from_u64(3);
        let mean: f64 = (0..10_000).map(|_| r.random::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn modulo_range_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts = {counts:?}");
        }
    }
}
