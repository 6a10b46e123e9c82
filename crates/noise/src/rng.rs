//! Reproducible random-number plumbing.
//!
//! Every stochastic component in the workspace draws noise from a
//! [`NoiseRng`]. A `NoiseRng` is seedable, cheap to fork, and deterministic,
//! which is what makes the "true" randomness of the simulated hardware
//! reproducible in experiments: the physics is random, the experiment is
//! not.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seedable random source used by all noise models in the workspace.
///
/// Wraps a cryptographically-solid PRNG ([`StdRng`]) so that the *model*
/// noise never becomes the statistical bottleneck of the simulated TRNG:
/// any structure detected by the test batteries comes from the simulated
/// circuit, not from the noise generator.
///
/// # Example
///
/// ```
/// use dhtrng_noise::NoiseRng;
/// use rand::Rng;
///
/// let mut a = NoiseRng::seed_from_u64(42);
/// let mut b = NoiseRng::seed_from_u64(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoiseRng {
    inner: StdRng,
}

impl NoiseRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Forks an independent child generator for a named subsystem.
    ///
    /// The child stream is decorrelated from the parent both by the drawn
    /// 64-bit seed material and by a stable hash of `label`, so two
    /// subsystems forked from the same parent never share a stream even if
    /// forked at the same point.
    pub fn fork(&mut self, label: &str) -> Self {
        let drawn: u64 = self.inner.gen();
        Self::seed_from_u64(drawn ^ fnv1a(label.as_bytes()))
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Draws a Bernoulli sample with probability `p` of `true`.
    ///
    /// `p` is clamped to `[0, 1]`, so callers may pass the raw output of a
    /// probability model without pre-clamping.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Precomputes the integer acceptance threshold for [`bernoulli`]
    /// with probability `p`, for use with [`bernoulli_fast`] in batched
    /// hot loops.
    ///
    /// [`bernoulli`] compares a uniform 53-bit mantissa draw
    /// `k * 2^-53 < p`. Both sides scale exactly by `2^53` (a power of
    /// two, so no rounding), giving the integer test `k < ceil(p * 2^53)`
    /// — bit-for-bit the same accept/reject decision without the
    /// per-draw clamp, int→float conversion and float compare.
    ///
    /// [`bernoulli`]: NoiseRng::bernoulli
    /// [`bernoulli_fast`]: NoiseRng::bernoulli_fast
    pub fn bernoulli_threshold(p: f64) -> u64 {
        const SCALE: f64 = (1u64 << 53) as f64;
        (p.clamp(0.0, 1.0) * SCALE).ceil() as u64
    }

    /// Draws a Bernoulli sample against a threshold precomputed by
    /// [`bernoulli_threshold`](NoiseRng::bernoulli_threshold).
    ///
    /// Consumes exactly one `u64` draw and returns exactly what
    /// [`bernoulli`](NoiseRng::bernoulli) would have returned for the
    /// probability the threshold was computed from (the equivalence is
    /// pinned by this module's tests).
    #[inline]
    pub fn bernoulli_fast(&mut self, threshold: u64) -> bool {
        (self.inner.next_u64() >> 11) < threshold
    }
}

impl RngCore for NoiseRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// 64-bit FNV-1a hash, used to derive fork seeds from labels.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = NoiseRng::seed_from_u64(1);
        let mut b = NoiseRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = NoiseRng::seed_from_u64(1);
        let mut b = NoiseRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_decorrelated_by_label() {
        let mut parent_a = NoiseRng::seed_from_u64(9);
        let mut parent_b = NoiseRng::seed_from_u64(9);
        let mut x = parent_a.fork("ro1");
        let mut y = parent_b.fork("ro2");
        let matches = (0..64).filter(|_| x.next_u64() == y.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn forks_are_reproducible() {
        let mut parent_a = NoiseRng::seed_from_u64(9);
        let mut parent_b = NoiseRng::seed_from_u64(9);
        let mut x = parent_a.fork("ro1");
        let mut y = parent_b.fork("ro1");
        for _ in 0..32 {
            assert_eq!(x.next_u64(), y.next_u64());
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = NoiseRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = NoiseRng::seed_from_u64(4);
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
        assert!((0..100).all(|_| !rng.bernoulli(0.0)));
        // Out-of-range probabilities are clamped, not a panic.
        assert!(rng.bernoulli(2.0));
        assert!(!rng.bernoulli(-1.0));
    }

    #[test]
    fn bernoulli_mean_tracks_p() {
        let mut rng = NoiseRng::seed_from_u64(5);
        let n = 200_000;
        let ones = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let mean = ones as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn threshold_bernoulli_matches_float_bernoulli() {
        // The batched generators rely on bernoulli_fast(threshold(p))
        // being indistinguishable from bernoulli(p): same decisions, same
        // number of draws, across edge and mid-range probabilities.
        let probabilities = [
            0.0,
            1.0,
            -0.5,
            2.0,
            0.5,
            0.25,
            1.0 - 1e-16,
            f64::MIN_POSITIVE,
            1e-18,
            0.3,
            0.999_999,
            7.2e-5,
        ];
        for &p in &probabilities {
            let threshold = NoiseRng::bernoulli_threshold(p);
            let mut float_rng = NoiseRng::seed_from_u64(0xFEED);
            let mut int_rng = NoiseRng::seed_from_u64(0xFEED);
            for draw in 0..20_000 {
                assert_eq!(
                    float_rng.bernoulli(p),
                    int_rng.bernoulli_fast(threshold),
                    "p = {p}, draw {draw}"
                );
            }
        }
    }

    #[test]
    fn threshold_bernoulli_matches_on_random_probabilities() {
        let mut p_source = NoiseRng::seed_from_u64(77);
        for case in 0..200 {
            let p = p_source.uniform();
            let threshold = NoiseRng::bernoulli_threshold(p);
            let mut float_rng = NoiseRng::seed_from_u64(1000 + case);
            let mut int_rng = NoiseRng::seed_from_u64(1000 + case);
            for _ in 0..500 {
                assert_eq!(
                    float_rng.bernoulli(p),
                    int_rng.bernoulli_fast(threshold),
                    "p = {p}"
                );
            }
        }
    }

    #[test]
    fn fnv_differs_for_labels() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }
}
