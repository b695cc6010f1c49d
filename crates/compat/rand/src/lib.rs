//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no access to the crates.io registry, so the
//! workspace vendors the *small* slice of `rand` it actually uses:
//! [`SeedableRng::seed_from_u64`], [`Rng::gen`], [`Rng::gen_range`] and
//! [`Rng::gen_bool`] over a deterministic xoshiro256** generator seeded
//! via SplitMix64 (the same seeding scheme the real `rand_xoshiro` uses).
//!
//! Determinism is a feature here, not a bug: every workload generator in
//! `gblas-core::gen` is seed-addressed, and the figure harness and tests
//! rely on a given `(generator, seed)` pair always producing the same
//! graph. The shim makes no attempt at cryptographic quality.

use std::ops::{Range, RangeInclusive};

/// Seedable generators (the only constructor the workspace uses).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed, expanding it with SplitMix64.
    fn seed_from_u64(seed: u64) -> Self;
}

/// xoshiro256** — fast, 256-bit state, good equidistribution.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl SeedableRng for Xoshiro256StarStar {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as rand_xoshiro does.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256StarStar { s: [next(), next(), next(), next()] }
    }
}

impl Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types producible by [`Rng::gen`] (the `Standard` distribution). Generic
/// over the generator, as in rand 0.8, so a draw inlines into its caller.
pub trait Standard: Sized {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> Self;
}

/// Object-safe core: 64 random bits per call.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl RngCore for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        Xoshiro256StarStar::next_u64(self)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128 - self.start as u128) as u64;
                // Multiply-shift rejection-free mapping (Lemire); the tiny
                // modulo bias is irrelevant for workload generation.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as u128 + hi as u128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "gen_range: empty range");
                if s == 0 && e as u128 == <$t>::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                let span = (e as u128 - s as u128 + 1) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (s as u128 + hi as u128) as $t
            }
        }
    )*};
}
int_sample_range!(usize, u64, u32, u16, u8);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// The user-facing sampling surface of `rand::Rng`.
pub trait Rng: RngCore {
    /// Sample from the `Standard` distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli trial with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<T: RngCore> Rng for T {}

pub mod rngs {
    //! Named generator aliases matching `rand::rngs`.
    /// "Small" fast generator — here the same xoshiro256** core.
    pub type SmallRng = super::Xoshiro256StarStar;
    /// "Standard" generator — identical core in this shim.
    pub type StdRng = super::Xoshiro256StarStar;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 values should appear");
        for _ in 0..1000 {
            let v = r.gen_range(5usize..=7);
            assert!((5..=7).contains(&v));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits} hits for p=0.25");
    }
}
