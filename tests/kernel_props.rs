//! The register-resident `BlockKernel` against the per-bit reference:
//! for random beat banks of every size the kernel accepts, with and
//! without the feedback line, every fill and every partial word must
//! equal the per-bit stream, and the phases and noise state the kernel
//! writes back must continue that stream exactly. The same holds at the
//! saturation corners of the Eq. 5 probability knobs.

use dh_trng::core::batch::MAX_BEATS;
use dh_trng::core::model::BeatOscillator;
use dh_trng::core::BlockKernel;
use dh_trng::prelude::*;
use proptest::prelude::*;

/// An Eq. 5 generator over an arbitrary beat bank, stepped by the
/// per-bit reference path (`rem_euclid` wraps, float Bernoulli draws).
#[derive(Clone)]
struct Generator {
    beats: Vec<BeatOscillator>,
    rng: NoiseRng,
    p_rand: f64,
    bias: f64,
    feedback: Option<(f64, Vec<f64>)>,
}

impl Generator {
    fn new(seed: u64, beats: usize, feedback: bool) -> Self {
        // Disabled, the calibrated order of magnitude, and large.
        const BIASES: [f64; 3] = [0.0, 7.2e-5, 0.25];
        let mut setup = NoiseRng::seed_from_u64(seed ^ 0xBEA7);
        let bank = (0..beats)
            .map(|_| {
                BeatOscillator::new(
                    setup.uniform(),
                    setup.uniform(),
                    0.1 + 0.8 * setup.uniform(),
                )
            })
            .collect();
        let mults = (0..beats).map(|_| setup.uniform()).collect();
        Self {
            beats: bank,
            rng: NoiseRng::seed_from_u64(seed),
            p_rand: setup.uniform(),
            bias: BIASES[(seed % 3) as usize],
            feedback: feedback.then_some((0.3, mults)),
        }
    }

    fn kernel(&self) -> BlockKernel {
        let feedback = self.feedback.as_ref().map(|(s, m)| (*s, &m[..]));
        BlockKernel::new(&self.beats, self.p_rand, self.bias, feedback).expect("<= MAX_BEATS")
    }

    fn next_bit(&mut self) -> bool {
        let mut beat_xor = false;
        for beat in &mut self.beats {
            beat_xor ^= beat.step();
        }
        let mut bit = if self.rng.bernoulli(self.p_rand) {
            self.rng.bernoulli(0.5)
        } else {
            beat_xor
        };
        if !bit && self.rng.bernoulli(2.0 * self.bias) {
            bit = true;
        }
        if let (true, Some((scale, mults))) = (bit, &self.feedback) {
            let kick = scale * self.rng.uniform();
            for (beat, &m) in self.beats.iter_mut().zip(mults) {
                beat.kick(kick * m);
            }
        }
        bit
    }

    fn next_bits(&mut self, n: u32) -> u64 {
        (0..n).fold(0, |word, _| (word << 1) | u64::from(self.next_bit()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One kernel, several fills whose lengths are never a multiple of
    /// 8 bytes (so the byte tail runs every time), then a partial word;
    /// after `write_back` the generator goes on through the per-bit
    /// path for 256 bits and must stay in lockstep with the reference.
    #[test]
    fn kernel_fills_and_write_back_match_the_per_bit_path(
        seed in any::<u64>(),
        beats in 1..MAX_BEATS + 1,
        feedback in any::<bool>(),
        fills in proptest::collection::vec((0usize..40, 1usize..8), 1..4),
        partial in 1u32..65,
    ) {
        let mut reference = Generator::new(seed, beats, feedback);
        let mut batched = reference.clone();
        let mut kernel = batched.kernel();
        for (words, tail) in fills {
            let mut buf = vec![0u8; 8 * words + tail];
            kernel.fill_bytes(&mut batched.rng, &mut buf);
            let expected: Vec<u8> = (0..buf.len()).map(|_| reference.next_bits(8) as u8).collect();
            prop_assert_eq!(buf, expected, "{} beats, feedback {}", beats, feedback);
        }
        prop_assert_eq!(kernel.next_bits(&mut batched.rng, partial), reference.next_bits(partial));
        kernel.write_back(&mut batched.beats);

        for _ in 0..256 {
            prop_assert_eq!(batched.next_bit(), reference.next_bit());
        }
        prop_assert_eq!(&batched.rng, &reference.rng);
        for (a, b) in batched.beats.iter().zip(&reference.beats) {
            prop_assert_eq!(a.phase().to_bits(), b.phase().to_bits());
        }
    }

    /// The Eq. 5 probability corners the random draws above never hit:
    /// `p_rand` saturated at 0 and 1, and a sampler bias from
    /// denormal-small (an acceptance threshold of one) up to 0.5, where
    /// the reference's `bernoulli(2 * bias)` always fires. The kernel's
    /// integer thresholds must decide exactly as the float draws do.
    #[test]
    fn kernel_matches_the_per_bit_path_at_probability_corners(
        seed in any::<u64>(),
        beats in 1..MAX_BEATS + 1,
        feedback in any::<bool>(),
        p_rand_pick in 0usize..2,
        bias_pick in 0usize..3,
        len in 1usize..200,
    ) {
        const P_RANDS: [f64; 2] = [0.0, 1.0];
        const BIASES: [f64; 3] = [0.0, 1e-18, 0.5];
        let mut reference = Generator::new(seed, beats, feedback);
        reference.p_rand = P_RANDS[p_rand_pick];
        reference.bias = BIASES[bias_pick];
        let mut batched = reference.clone();
        let mut kernel = batched.kernel();
        let mut buf = vec![0u8; len];
        kernel.fill_bytes(&mut batched.rng, &mut buf);
        let expected: Vec<u8> = (0..len).map(|_| reference.next_bits(8) as u8).collect();
        prop_assert_eq!(
            buf, expected,
            "p_rand {}, bias {}, {} beats, feedback {}",
            reference.p_rand, reference.bias, beats, feedback
        );
        kernel.write_back(&mut batched.beats);
        prop_assert_eq!(&batched.rng, &reference.rng);
        for (a, b) in batched.beats.iter().zip(&reference.beats) {
            prop_assert_eq!(a.phase().to_bits(), b.phase().to_bits());
        }
    }
}
