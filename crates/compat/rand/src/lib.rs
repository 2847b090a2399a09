//! Offline stand-in for the subset of the `rand` 0.8 API used by TAQOS.
//!
//! The workspace builds without network access, so the real `rand` cannot be
//! fetched. This crate re-implements the small surface the simulator relies
//! on — [`RngCore`], [`Rng::gen_bool`], [`Rng::gen_range`] over primitive
//! integer and float ranges, and [`SeedableRng::seed_from_u64`] — with the
//! same numerical conventions as upstream (53-bit float resolution for
//! `gen_bool`, unbiased rejection sampling for integer ranges) so generated
//! traffic is statistically sound and fully deterministic per seed.
//!
//! The concrete generator lives in the sibling `rand_chacha` stub.
//!
//! Every generator is built from an explicit seed: neither stand-in defines
//! `thread_rng`, `from_entropy` or `OsRng`, so an entropy-seeded RNG does
//! not compile anywhere in the workspace.

use std::ops::Range;

/// Core random-number generation interface (subset of `rand::RngCore`).
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from a `Range` by [`Rng::gen_range`].
pub trait SampleRange: Sized {
    /// Draws a value uniformly from `range` using `rng`.
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
                assert!(range.start < range.end, "gen_range called with empty range");
                let span = (range.end - range.start) as u64;
                // Unbiased via rejection of the tail of the 64-bit space.
                let zone = u64::MAX - (u64::MAX - span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        return range.start + (v % span) as $t;
                    }
                }
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, usize);

impl SampleRange for u64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range called with empty range");
        let span = range.end - range.start;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return range.start + v % span;
            }
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
                assert!(range.start < range.end, "gen_range called with empty range");
                let span = (range.end as i64).wrapping_sub(range.start as i64) as u64;
                let zone = u64::MAX - (u64::MAX - span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        return ((range.start as i64).wrapping_add((v % span) as i64)) as $t;
                    }
                }
            }
        }
    )*};
}

impl_sample_range_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange for f64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range called with empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }
}

impl SampleRange for f32 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range called with empty range");
        let unit = (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        range.start + unit * (range.end - range.start)
    }
}

/// Convenience sampling methods layered over [`RngCore`] (subset of
/// `rand::Rng`). Blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        // 53-bit resolution, matching upstream rand's Bernoulli convention.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(range, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Seed type of the generator.
    type Seed: AsMut<[u8]> + Default;

    /// Constructs the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a `u64`, expanding it to a full seed
    /// with SplitMix64 (the same convention as upstream rand).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Mirror of `rand::rngs` far enough for common imports.
pub mod rngs {}

/// Mirror of `rand::prelude`.
pub mod prelude {
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counter(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(7);
        for _ in 0..100 {
            assert!(rng.gen_bool(1.0));
            assert!(!rng.gen_bool(0.0));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Counter(3);
        let mut buf = [0u8; 11];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
