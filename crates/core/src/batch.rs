//! Block-generation kernel behind the batched [`Trng`](crate::Trng)
//! fast paths.
//!
//! The per-bit reference paths ([`Trng::next_bit`](crate::Trng::next_bit))
//! pay costs every cycle that are in fact invariant across a whole block:
//!
//! * `rem_euclid` (an `fmod` libcall) in every beat-oscillator step and
//!   feedback kick, although the operands always lie in `[0, 2)` where a
//!   compare-and-subtract is exact;
//! * the Bernoulli probability clamp and int→float conversion, although
//!   the acceptance thresholds are fixed at build time
//!   ([`NoiseRng::bernoulli_threshold`]);
//! * the feedback kick multipliers, recomputed from scratch per kick;
//! * the `Vec<BeatOscillator>` indirection of the beat bank.
//!
//! [`BlockKernel`] hoists all of that out of the inner loop once per
//! block. Each call then copies the beat bank and the [`NoiseRng`] into
//! locals of a compile-time width, so both stay in registers while it
//! generates, and writes them back once at the end.
//! The kernel is **bit-exact**: for the same starting state and the same
//! [`NoiseRng`], it produces exactly the stream the per-bit reference
//! produces (every arithmetic step is provably the same f64 computation;
//! the equivalence is additionally pinned by tests here, in `trng.rs`,
//! and in the workspace-level `tests/batching.rs` and
//! `tests/kernel_props.rs`).

use dhtrng_noise::NoiseRng;

use crate::model::BeatOscillator;

/// Largest beat bank a [`BlockKernel`] accepts. Callers with more
/// oscillators fall back to the per-bit reference path (none of the
/// in-tree generators come close: DH-TRNG has 12 rings, the Table 2
/// groups at most 18).
pub const MAX_BEATS: usize = 32;

/// Why a [`BlockKernel`] could not be built over a beat bank.
///
/// Historically [`BlockKernel::new`] reported this as a bare `None`,
/// which every caller silently turned into the per-bit fallback path —
/// so a mis-sized bank degraded throughput ~7x without a word. The
/// typed surface ([`BlockKernel::try_new`]) names the violated limit;
/// `new` keeps the `Option` shape for the fallback-style callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// The beat bank exceeds the kernel's fixed capacity
    /// ([`MAX_BEATS`]); the caller must use its per-bit path.
    TooManyBeats {
        /// Oscillators in the offered bank.
        got: usize,
        /// The kernel capacity ([`MAX_BEATS`]).
        max: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyBeats { got, max } => write!(
                f,
                "beat bank of {got} oscillators exceeds the block-kernel \
                 capacity of {max}; use the per-bit path"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Packs `n` (1..=64) cycles of `cycle` into a word, oldest bit first —
/// the packing every `Trng::next_bits` implementation must produce.
///
/// For generators whose per-cycle body has no hoistable state (e.g. the
/// Gaussian-sampling baselines), the batched override is this loop over
/// the same `cycle` function `next_bit` calls — one definition of the
/// physics, so the two paths cannot drift apart.
///
/// # Panics
///
/// Panics unless `1 <= n <= 64`.
#[inline]
pub fn pack_bits(n: u32, mut cycle: impl FnMut() -> bool) -> u64 {
    assert!((1..=64).contains(&n), "next_bits takes 1..=64, got {n}");
    let mut word = 0u64;
    for _ in 0..n {
        word = (word << 1) | u64::from(cycle());
    }
    word
}

/// A hoisted-state generator for one block of Eq. 5-shaped cycles.
///
/// Covers every generator in the workspace that follows the calibrated
/// stochastic structure — per cycle: XOR the free-running beat
/// oscillators, capture a fresh random event with probability `p_rand`,
/// apply the systematic sampler bias, and (DH-TRNG only) kick the ring
/// phases through the feedback line when the output bit is 1.
///
/// Usage: build from the generator's state, call
/// [`next_word`](Self::next_word) / [`next_bits`](Self::next_bits) /
/// [`fill_bytes`](Self::fill_bytes) as often as needed, then
/// [`write_back`](Self::write_back) the advanced phases. The `NoiseRng`
/// is borrowed per call and advanced in place before the call returns,
/// so between calls its state lives in the owning generator.
#[derive(Debug, Clone)]
pub struct BlockKernel {
    beats: usize,
    phases: [f64; MAX_BEATS],
    increments: [f64; MAX_BEATS],
    duties: [f64; MAX_BEATS],
    /// Feedback kick multipliers; `kick_scale == 0.0` disables feedback
    /// (an enabled feedback line always has a positive scale).
    kick_mults: [f64; MAX_BEATS],
    kick_scale: f64,
    p_rand_threshold: u64,
    half_threshold: u64,
    bias_threshold: u64,
}

/// Bank widths are rounded up to a multiple of this many lanes. Every
/// width is its own instantiation of the hot loop, so the rounding
/// bounds the instantiations at `MAX_BEATS / LANE_GROUP`.
const LANE_GROUP: usize = 4;

const _: () = assert!(MAX_BEATS == 8 * LANE_GROUP, "at_width! lists 8 widths");

/// Calls `$body::<W>($args)` where `W` is the bank size rounded up to a
/// multiple of [`LANE_GROUP`]: a compile-time width, so the beat loops
/// unroll and the bank lives in registers for the whole call.
macro_rules! at_width {
    ($beats:expr, $body:ident($($arg:expr),*)) => {
        match $beats.div_ceil(LANE_GROUP) {
            0 | 1 => $body::<4>($($arg),*),
            2 => $body::<8>($($arg),*),
            3 => $body::<12>($($arg),*),
            4 => $body::<16>($($arg),*),
            5 => $body::<20>($($arg),*),
            6 => $body::<24>($($arg),*),
            7 => $body::<28>($($arg),*),
            _ => $body::<32>($($arg),*),
        }
    };
}

impl BlockKernel {
    /// Builds a kernel over the generator's beat bank and calibrated
    /// probabilities.
    ///
    /// `feedback` carries the kick scale and per-beat multipliers of the
    /// feedback strategy (`None` for generators without a feedback
    /// line). Returns `None` when the beat bank exceeds [`MAX_BEATS`],
    /// in which case the caller must use its per-bit path — see
    /// [`try_new`](Self::try_new) for the typed version of the same
    /// rejection.
    ///
    /// # Panics
    ///
    /// Panics if `feedback` multipliers don't match the beat count.
    pub fn new(
        beats: &[BeatOscillator],
        p_rand: f64,
        bias: f64,
        feedback: Option<(f64, &[f64])>,
    ) -> Option<Self> {
        Self::try_new(beats, p_rand, bias, feedback).ok()
    }

    /// [`new`](Self::new) with a typed rejection: callers that have no
    /// per-bit fallback get a [`KernelError`] naming the violated limit
    /// instead of a silent `None`.
    ///
    /// # Errors
    ///
    /// [`KernelError::TooManyBeats`] when the bank exceeds
    /// [`MAX_BEATS`].
    ///
    /// # Panics
    ///
    /// Panics if `feedback` multipliers don't match the beat count.
    pub fn try_new(
        beats: &[BeatOscillator],
        p_rand: f64,
        bias: f64,
        feedback: Option<(f64, &[f64])>,
    ) -> Result<Self, KernelError> {
        if beats.len() > MAX_BEATS {
            return Err(KernelError::TooManyBeats {
                got: beats.len(),
                max: MAX_BEATS,
            });
        }
        let mut kernel = Self {
            beats: beats.len(),
            phases: [0.0; MAX_BEATS],
            increments: [0.0; MAX_BEATS],
            duties: [0.0; MAX_BEATS],
            kick_mults: [0.0; MAX_BEATS],
            kick_scale: 0.0,
            p_rand_threshold: NoiseRng::bernoulli_threshold(p_rand),
            half_threshold: NoiseRng::bernoulli_threshold(0.5),
            // The reference path draws bernoulli(2 * bias).
            bias_threshold: NoiseRng::bernoulli_threshold(2.0 * bias),
        };
        for (i, beat) in beats.iter().enumerate() {
            kernel.phases[i] = beat.phase();
            kernel.increments[i] = beat.increment();
            kernel.duties[i] = beat.duty();
        }
        if let Some((scale, mults)) = feedback {
            assert_eq!(
                mults.len(),
                beats.len(),
                "one kick multiplier per beat oscillator"
            );
            kernel.kick_mults[..mults.len()].copy_from_slice(mults);
            kernel.kick_scale = scale;
        }
        Ok(kernel)
    }

    /// Generates `n` cycles (1..=64), oldest bit first: the first cycle
    /// lands in bit `n - 1`, the newest in bit 0 — the packing a
    /// `next_bit` fold produces.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 64`.
    #[inline]
    pub fn next_bits(&mut self, rng: &mut NoiseRng, n: u32) -> u64 {
        assert!((1..=64).contains(&n), "next_bits takes 1..=64, got {n}");
        at_width!(self.beats, next_bits_at(self, rng, n))
    }

    /// Generates a full 64-cycle word (oldest cycle in the MSB).
    #[inline]
    pub fn next_word(&mut self, rng: &mut NoiseRng) -> u64 {
        self.next_bits(rng, 64)
    }

    /// Fills `buf` through the kernel — eight bytes per word, then an
    /// 8-cycle chunk per tail byte. The block body behind every batched
    /// `Trng::fill_bytes`; callers build one kernel per buffer and
    /// [`write_back`](Self::write_back) once at the end.
    pub fn fill_bytes(&mut self, rng: &mut NoiseRng, buf: &mut [u8]) {
        at_width!(self.beats, fill_bytes_at(self, rng, buf))
    }

    /// Writes the advanced phases back into the generator's beat bank.
    ///
    /// # Panics
    ///
    /// Panics if `beats` is not the bank the kernel was built from
    /// (length mismatch).
    pub fn write_back(&self, beats: &mut [BeatOscillator]) {
        assert_eq!(beats.len(), self.beats, "write_back to a different bank");
        for (beat, &phase) in beats.iter_mut().zip(&self.phases) {
            beat.set_phase(phase);
        }
    }
}

/// [`BlockKernel::next_bits`] at a fixed bank width.
fn next_bits_at<const W: usize>(kernel: &mut BlockKernel, rng: &mut NoiseRng, n: u32) -> u64 {
    let mut bank = Bank::<W>::load(kernel, rng);
    let word = bank.next_bits(n);
    bank.store(kernel, rng);
    word
}

/// [`BlockKernel::fill_bytes`] at a fixed bank width.
fn fill_bytes_at<const W: usize>(kernel: &mut BlockKernel, rng: &mut NoiseRng, buf: &mut [u8]) {
    let mut bank = Bank::<W>::load(kernel, rng);
    let mut chunks = buf.chunks_exact_mut(8);
    for chunk in chunks.by_ref() {
        chunk.copy_from_slice(&bank.next_bits(64).to_be_bytes());
    }
    for slot in chunks.into_remainder() {
        *slot = bank.next_bits(8) as u8;
    }
    bank.store(kernel, rng);
}

/// One call's working copy of a [`BlockKernel`] and its `NoiseRng`,
/// `W` lanes wide.
///
/// Loaded once per call and stored once at its end. Between the two,
/// nothing reaches the bank or the generator through memory, so the
/// phases and the four xoshiro words stay in registers across the
/// cycles. Lanes past the real bank are inert: phase, increment, duty
/// and kick multiplier 0, so each cycle adds exactly `+0.0` to them,
/// never wraps them, and never flips the beat XOR.
struct Bank<const W: usize> {
    phases: [f64; W],
    increments: [f64; W],
    duties: [f64; W],
    kick_mults: [f64; W],
    kick_scale: f64,
    p_rand_threshold: u64,
    half_threshold: u64,
    bias_threshold: u64,
    rng: NoiseRng,
}

impl<const W: usize> Bank<W> {
    #[inline(always)]
    fn load(kernel: &BlockKernel, rng: &NoiseRng) -> Self {
        fn lanes<const W: usize>(row: &[f64; MAX_BEATS]) -> [f64; W] {
            let mut out = [0.0; W];
            out.copy_from_slice(&row[..W]);
            out
        }
        Self {
            phases: lanes(&kernel.phases),
            increments: lanes(&kernel.increments),
            duties: lanes(&kernel.duties),
            kick_mults: lanes(&kernel.kick_mults),
            kick_scale: kernel.kick_scale,
            p_rand_threshold: kernel.p_rand_threshold,
            half_threshold: kernel.half_threshold,
            bias_threshold: kernel.bias_threshold,
            rng: rng.clone(),
        }
    }

    #[inline(always)]
    fn store(self, kernel: &mut BlockKernel, rng: &mut NoiseRng) {
        kernel.phases[..W].copy_from_slice(&self.phases);
        *rng = self.rng;
    }

    /// One cycle of the Eq. 5 structure — the same draws, in the same
    /// order, as the per-bit reference paths.
    #[inline(always)]
    fn cycle(&mut self) -> bool {
        // Free-running beats advance every cycle. Phase and increment
        // both lie in [0, 1), so the wrapped sum lies in [0, 2) and the
        // compare-and-subtract equals `rem_euclid(1.0)` exactly.
        let mut beat_xor = false;
        for i in 0..W {
            let mut phase = self.phases[i] + self.increments[i];
            if phase >= 1.0 {
                phase -= 1.0;
            }
            self.phases[i] = phase;
            beat_xor ^= phase < self.duties[i];
        }
        let rng = &mut self.rng;
        let mut bit = if rng.bernoulli_fast(self.p_rand_threshold) {
            rng.bernoulli_fast(self.half_threshold)
        } else {
            beat_xor
        };
        if !bit && rng.bernoulli_fast(self.bias_threshold) {
            bit = true;
        }
        if bit && self.kick_scale != 0.0 {
            // Feedback: one uniform draw spread over the rings. Kick
            // amounts stay below the scale (< 1), so the same
            // compare-and-subtract wrap applies.
            let kick = self.kick_scale * rng.uniform();
            for i in 0..W {
                let mut phase = self.phases[i] + kick * self.kick_mults[i];
                if phase >= 1.0 {
                    phase -= 1.0;
                }
                self.phases[i] = phase;
            }
        }
        bit
    }

    /// `n` cycles packed oldest bit first (`1 <= n <= 64`, checked by
    /// the public callers).
    #[inline(always)]
    fn next_bits(&mut self, n: u32) -> u64 {
        let mut word = 0u64;
        for _ in 0..n {
            word = (word << 1) | u64::from(self.cycle());
        }
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(seed: u64, n: usize) -> Vec<BeatOscillator> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| BeatOscillator::new(rng.uniform(), rng.uniform(), 0.5))
            .collect()
    }

    /// Per-bit reference for the kernel's cycle structure.
    fn reference_bit(
        beats: &mut [BeatOscillator],
        rng: &mut NoiseRng,
        p_rand: f64,
        bias: f64,
        feedback: Option<(f64, &[f64])>,
    ) -> bool {
        let mut beat_xor = false;
        for beat in beats.iter_mut() {
            beat_xor ^= beat.step();
        }
        let mut bit = if rng.bernoulli(p_rand) {
            rng.bernoulli(0.5)
        } else {
            beat_xor
        };
        if !bit && rng.bernoulli(2.0 * bias) {
            bit = true;
        }
        if bit {
            if let Some((scale, mults)) = feedback {
                let kick = scale * rng.uniform();
                for (beat, &m) in beats.iter_mut().zip(mults) {
                    beat.kick(kick * m);
                }
            }
        }
        bit
    }

    #[test]
    fn kernel_matches_reference_with_and_without_feedback() {
        let mults = [0.37, 0.81, 0.12, 0.64, 0.29, 0.93, 0.55];
        for feedback in [None, Some((0.3, &mults[..]))] {
            let mut ref_beats = bank(5, 7);
            let mut kernel_beats = ref_beats.clone();
            let mut ref_rng = NoiseRng::seed_from_u64(9);
            let mut kernel_rng = NoiseRng::seed_from_u64(9);
            let (p_rand, bias) = (0.73, 2.1e-4);

            let mut kernel =
                BlockKernel::new(&kernel_beats, p_rand, bias, feedback).expect("7 <= MAX_BEATS");
            let mut kernel_bits = Vec::new();
            for _ in 0..8 {
                let word = kernel.next_word(&mut kernel_rng);
                kernel_bits.extend((0..64).rev().map(|i| (word >> i) & 1 == 1));
            }
            kernel.write_back(&mut kernel_beats);

            let ref_bits: Vec<bool> = (0..512)
                .map(|_| reference_bit(&mut ref_beats, &mut ref_rng, p_rand, bias, feedback))
                .collect();

            assert_eq!(kernel_bits, ref_bits, "feedback = {}", feedback.is_some());
            // The written-back bank continues in lockstep with the
            // reference bank.
            for (a, b) in ref_beats.iter().zip(&kernel_beats) {
                assert_eq!(a.phase(), b.phase());
            }
        }
    }

    #[test]
    fn partial_words_pack_oldest_first() {
        let beats = bank(11, 3);
        let mut rng_a = NoiseRng::seed_from_u64(4);
        let mut rng_b = NoiseRng::seed_from_u64(4);
        let mut a = BlockKernel::new(&beats, 0.6, 1e-4, None).unwrap();
        let mut b = BlockKernel::new(&beats, 0.6, 1e-4, None).unwrap();
        let bits: Vec<bool> = (0..12).map(|_| a.next_bits(&mut rng_a, 1) == 1).collect();
        let word = b.next_bits(&mut rng_b, 12);
        let unpacked: Vec<bool> = (0..12).rev().map(|i| (word >> i) & 1 == 1).collect();
        assert_eq!(bits, unpacked);
    }

    #[test]
    fn oversized_bank_is_rejected() {
        let beats = bank(1, MAX_BEATS + 1);
        assert!(BlockKernel::new(&beats, 0.5, 0.0, None).is_none());
        let beats = bank(1, MAX_BEATS);
        assert!(BlockKernel::new(&beats, 0.5, 0.0, None).is_some());
    }

    #[test]
    fn oversized_bank_reports_a_typed_error() {
        let beats = bank(1, MAX_BEATS + 3);
        let err = BlockKernel::try_new(&beats, 0.5, 0.0, None).unwrap_err();
        assert_eq!(
            err,
            KernelError::TooManyBeats {
                got: MAX_BEATS + 3,
                max: MAX_BEATS,
            }
        );
        // The message names both the offered size and the limit, so a
        // misconfigured caller sees the actual numbers, not just `None`.
        let message = err.to_string();
        assert!(message.contains("35"), "{message}");
        assert!(message.contains("32"), "{message}");
        // At the boundary the typed path accepts exactly like `new`.
        let beats = bank(1, MAX_BEATS);
        assert!(BlockKernel::try_new(&beats, 0.5, 0.0, None).is_ok());
    }

    #[test]
    #[should_panic(expected = "next_bits takes 1..=64")]
    fn zero_bits_panics() {
        let beats = bank(2, 2);
        let mut rng = NoiseRng::seed_from_u64(1);
        let mut kernel = BlockKernel::new(&beats, 0.5, 0.0, None).unwrap();
        let _ = kernel.next_bits(&mut rng, 0);
    }
}
