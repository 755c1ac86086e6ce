//! A vendored, dependency-free subset of the `rand` 0.8 API.
//!
//! The workspace must build with no network access and no crates.io
//! mirror, so this crate re-implements exactly the surface the repo uses:
//! [`Rng::gen`], [`Rng::gen_range`] (half-open and inclusive integer and
//! float ranges), [`Rng::gen_bool`], [`SeedableRng::seed_from_u64`] and
//! [`rngs::StdRng`]. Every generator is seeded explicitly; there is no
//! entropy-seeded one. The generator is xoshiro256++
//! seeded through SplitMix64 — deterministic, `Clone`, and statistically
//! solid for search/sampling workloads. Streams do **not** match upstream
//! `rand`'s ChaCha-based `StdRng`; everything in this repo that relies on
//! reproducibility only requires self-consistency across runs.

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly over their "standard" domain (`[0,1)` for
/// floats, the full range for integers), mirroring rand's
/// `Standard` distribution.
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Uniform u64 in `[0, span)` by rejection (no modulo bias).
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Reject the top `rem` values so the accepted count is a multiple of
    // `span`; rem == 0 means 2^64 divides evenly and everything is accepted.
    let rem = (u64::MAX % span + 1) % span;
    loop {
        let v = rng.next_u64();
        if rem == 0 || v <= u64::MAX - rem {
            return v % span;
        }
    }
}

/// Range types usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.wrapping_sub(self.start) as $u as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "gen_range: empty range");
                let span = end.wrapping_sub(start) as $u as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
);

macro_rules! impl_float_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let f = <$t as StandardSample>::sample(rng);
                self.start + f * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "gen_range: empty range");
                let f = <$t as StandardSample>::sample(rng);
                start + f * (end - start)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// The user-facing sampling interface (subset of rand's `Rng`).
pub trait Rng: RngCore {
    /// A uniform sample of `T` over its standard domain (`[0,1)` for
    /// floats).
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform sample from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p}");
        <f64 as StandardSample>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of a generator from a small seed.
pub trait SeedableRng: Sized {
    /// A generator deterministically expanded from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard PRNG: xoshiro256++ seeded via SplitMix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl StdRng {
        /// The generator's raw internal state, for checkpointing. A
        /// generator rebuilt via [`StdRng::from_state`] continues the
        /// stream from exactly this position.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a state captured by [`StdRng::state`].
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn ranges_respect_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = rng.gen_range(0..7usize);
            seen[i] = true;
            let j = rng.gen_range(0..=6usize);
            assert!(j <= 6);
            let f = rng.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
            let p = rng.gen_range(0..=4u32);
            assert!(p <= 4);
            let s = rng.gen_range(-5..5i64);
            assert!((-5..5).contains(&s));
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn rng_usable_through_mut_ref() {
        fn draw(rng: &mut impl Rng) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(4);
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = StdRng::seed_from_u64(99);
        for _ in 0..17 {
            a.gen::<u64>();
        }
        let snap = a.state();
        let tail: Vec<u64> = (0..50).map(|_| a.gen::<u64>()).collect();
        let mut b = StdRng::from_state(snap);
        let resumed: Vec<u64> = (0..50).map(|_| b.gen::<u64>()).collect();
        assert_eq!(tail, resumed);
    }
}
