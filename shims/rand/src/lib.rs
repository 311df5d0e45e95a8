//! In-tree, offline shim for the `rand 0.8` API subset this workspace
//! uses: `StdRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}`, and
//! `seq::SliceRandom::shuffle`. The generator is xoshiro256++ seeded via
//! SplitMix64 — deterministic per seed (what the tests rely on), though
//! the streams differ from upstream `StdRng`'s ChaCha12.

use std::ops::Range;

/// Low-level 64-bit generator interface.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly from a generator's full output (the
/// `Standard` distribution in upstream rand).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types samplable uniformly from a half-open range.
pub trait UniformSample: Sized {
    /// Draws one value from `[range.start, range.end)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

impl UniformSample for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty gen_range");
        let u = f64::sample(rng);
        range.start + u * (range.end - range.start)
    }
}

impl UniformSample for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty gen_range");
        let u = f32::sample(rng);
        range.start + u * (range.end - range.start)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty gen_range");
                let span = range.end.abs_diff(range.start) as u64;
                // Modulo bias is negligible for the small spans used here.
                let offset = rng.next_u64() % span;
                (range.start as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

/// The user-facing generator interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws uniformly from a half-open range.
    fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seeding interface (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stands in for upstream
    /// `StdRng`; same role, different stream).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl StdRng {
        /// Returns the raw xoshiro256++ state, for checkpointing.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a previously captured [`state`].
        ///
        /// The stream continues exactly where the captured generator
        /// left off, which is what makes RNG-bearing components
        /// bit-exactly resumable.
        ///
        /// [`state`]: StdRng::state
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    /// Stateless counter-based generator: every value is a pure function
    /// `mix(seed, stream, counter)` with no sequential state, so draws
    /// from distinct `(stream, counter)` pairs can be taken in **any
    /// order** — including concurrently from disjoint streams — and
    /// still reproduce bit-identically. The mixer is two rounds of the
    /// SplitMix64 finalizer over the golden-ratio-weighted inputs.
    ///
    /// This is the piece that makes conditional per-server random draws
    /// shardable: a caller that keeps one counter per stream (e.g. per
    /// server) replays the exact sequential draw sequence no matter
    /// which worker thread advances the counter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CounterRng {
        seed: u64,
    }

    /// One round of the SplitMix64 output finalizer (no state advance).
    #[inline]
    fn mix64(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl CounterRng {
        /// Builds the generator for one 64-bit seed.
        pub fn new(seed: u64) -> Self {
            CounterRng { seed }
        }

        /// The seed this generator was built from.
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// The 64 bits at `(stream, counter)`.
        #[inline]
        pub fn u64_at(&self, stream: u64, counter: u64) -> u64 {
            let z = self
                .seed
                .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(stream.wrapping_add(1)))
                .wrapping_add(0xd1b54a32d192ed03u64.wrapping_mul(counter.wrapping_add(1)));
            mix64(mix64(z))
        }

        /// Uniform `[0, 1)` at `(stream, counter)` — the same 53-bit
        /// mantissa construction as [`StandardSample`] for `f64`, so
        /// probability comparisons behave identically to `gen_bool`.
        ///
        /// [`StandardSample`]: crate::StandardSample
        #[inline]
        pub fn f64_at(&self, stream: u64, counter: u64) -> f64 {
            (self.u64_at(stream, counter) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// `true` with probability `p` at `(stream, counter)`.
        #[inline]
        pub fn bool_at(&self, stream: u64, counter: u64, p: f64) -> bool {
            self.f64_at(stream, counter) < p
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
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
            result
        }
    }
}

/// Slice utilities (subset of `rand::seq`).
pub mod seq {
    use super::RngCore;

    /// Random slice operations (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(8);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&x));
            let n = r.gen_range(0usize..7);
            assert!(n < 7);
        }
    }

    #[test]
    fn unit_float_mean_is_centered() {
        let mut r = StdRng::seed_from_u64(2);
        let mean: f64 = (0..100_000).map(|_| r.gen::<f64>()).sum::<f64>() / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut r = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            r.gen::<u64>();
        }
        let mut resumed = StdRng::from_state(r.state());
        let a: Vec<u64> = (0..8).map(|_| r.gen::<u64>()).collect();
        let b: Vec<u64> = (0..8).map(|_| resumed.gen::<u64>()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn counter_rng_is_order_free_and_seeded() {
        use super::rngs::CounterRng;
        let r = CounterRng::new(7);
        // Pure function of (stream, counter): any evaluation order gives
        // the same values.
        let forward: Vec<u64> = (0..64).map(|c| r.u64_at(3, c)).collect();
        let backward: Vec<u64> = (0..64).rev().map(|c| r.u64_at(3, c)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // Distinct seeds and distinct streams give distinct sequences.
        let other_seed: Vec<u64> = (0..64).map(|c| CounterRng::new(8).u64_at(3, c)).collect();
        let other_stream: Vec<u64> = (0..64).map(|c| r.u64_at(4, c)).collect();
        assert_ne!(forward, other_seed);
        assert_ne!(forward, other_stream);
    }

    #[test]
    fn counter_rng_unit_floats_are_uniformish() {
        use super::rngs::CounterRng;
        let r = CounterRng::new(11);
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|c| r.f64_at(c % 97, c)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        for c in 0..10_000 {
            let x = r.f64_at(5, c);
            assert!((0.0..1.0).contains(&x));
        }
        // bool_at agrees with the f64 threshold construction.
        assert_eq!(r.bool_at(2, 9, 0.5), r.f64_at(2, 9) < 0.5);
    }

    // Known-answer tests. Every golden trace depends on these two
    // streams, so a change to the generators (or to the draw chain built
    // on them) fails here before it reaches a golden diff.

    #[test]
    fn std_rng_known_answers() {
        use super::RngCore;
        let cases: [(u64, [u64; 4]); 2] = [
            (
                0,
                [
                    0x53175d61490b23df,
                    0x61da6f3dc380d507,
                    0x5c0fdf91ec9a7bfc,
                    0x02eebf8c3bbe5e1a,
                ],
            ),
            (
                42,
                [
                    0xd0764d4f4476689f,
                    0x519e4174576f3791,
                    0xfbe07cfb0c24ed8c,
                    0xb37d9f600cd835b8,
                ],
            ),
        ];
        for (seed, expected) in cases {
            let mut r = StdRng::seed_from_u64(seed);
            let got = [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()];
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn counter_rng_known_answers() {
        use super::rngs::CounterRng;
        // (seed, stream, counter) → (u64_at, f64_at bits).
        let cases: [((u64, u64, u64), u64, u64); 5] = [
            ((0, 0, 0), 0x2d266b3b442d7c74, 0x3fc693359da216bc),
            ((7, 3, 0), 0xcf9921220a96bb85, 0x3fe9f324244152d7),
            ((7, 3, 1), 0x377ee4c37601929a, 0x3fcbbf7261bb00c8),
            ((99, 60, 12345), 0x2fc9c8410c024ee4, 0x3fc7e4e420860124),
            (
                (u64::MAX, u64::MAX, u64::MAX),
                0x4bffd802ebfb15e4,
                0x3fd2fff600bafec4,
            ),
        ];
        for ((seed, stream, ctr), word, unit_bits) in cases {
            let r = CounterRng::new(seed);
            let at = (seed, stream, ctr);
            assert_eq!(r.u64_at(stream, ctr), word, "u64_at {at:?}");
            let u = r.f64_at(stream, ctr);
            assert_eq!(u.to_bits(), unit_bits, "f64_at {at:?}");
            // bool_at is a strict `<` against the same uniform.
            assert!(
                !r.bool_at(stream, ctr, u),
                "bool_at {at:?} at its own value"
            );
            assert!(
                r.bool_at(stream, ctr, f64::from_bits(unit_bits + 1)),
                "bool_at {at:?} just above"
            );
        }
        let r = CounterRng::new(7);
        assert!(!r.bool_at(3, 0, 0.5));
        assert!(r.bool_at(3, 1, 0.5));
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..20).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, sorted, "20 elements virtually never shuffle to identity");
    }
}
