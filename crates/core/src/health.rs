//! Online health tests (SP 800-90B §4.4).
//!
//! A deployed TRNG must detect catastrophic entropy-source failure at
//! runtime. This module implements the two mandatory continuous tests —
//! the Repetition Count Test (RCT) and the Adaptive Proportion Test
//! (APT) — sized for a binary source with the paper's entropy level
//! (H ≈ 0.99/bit), plus a monitor that folds them over a bit stream.

/// Outcome of feeding a bit to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// All tests nominal.
    Ok,
    /// The Repetition Count Test tripped (a value repeated too long).
    RepetitionFailure,
    /// The Adaptive Proportion Test tripped (a value dominated a window).
    ProportionFailure,
}

/// Continuous health monitor: RCT + APT over a binary stream.
///
/// Cutoffs follow SP 800-90B §4.4 with `alpha = 2^-30` and
/// `H = 0.99` bits/sample:
///
/// * RCT cutoff `C = 1 + ceil(30 / H) = 32`;
/// * APT window `W = 1024`, cutoff from the binomial tail at
///   `p = 2^-H`: 624.
///
/// # Example
///
/// ```
/// use dhtrng_core::{HealthMonitor, HealthStatus};
///
/// let mut hm = HealthMonitor::new();
/// // A healthy alternating-ish stream never trips the monitor.
/// for i in 0..10_000 {
///     assert_eq!(hm.feed(i % 2 == 0), HealthStatus::Ok);
/// }
/// // A stuck-at source trips the repetition count test.
/// let status = (0..100).map(|_| hm.feed(true)).find(|s| *s != HealthStatus::Ok);
/// assert_eq!(status, Some(HealthStatus::RepetitionFailure));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthMonitor {
    rct_cutoff: u32,
    apt_window: u32,
    apt_cutoff: u32,
    // RCT state.
    last: Option<bool>,
    run: u32,
    // APT state.
    window_pos: u32,
    reference: bool,
    matches: u32,
    // Statistics.
    bits_seen: u64,
    failures: u64,
}

impl HealthMonitor {
    /// Monitor with the default cutoffs (H = 0.99, alpha = 2^-30).
    pub fn new() -> Self {
        Self::with_cutoffs(32, 1024, 624)
    }

    /// Monitor with explicit cutoffs.
    ///
    /// # Panics
    ///
    /// Panics if any cutoff is zero or `apt_cutoff > apt_window`.
    pub fn with_cutoffs(rct_cutoff: u32, apt_window: u32, apt_cutoff: u32) -> Self {
        assert!(rct_cutoff > 1, "RCT cutoff must exceed 1");
        assert!(
            apt_window > 0 && apt_cutoff > 0,
            "APT parameters must be positive"
        );
        assert!(
            apt_cutoff <= apt_window,
            "APT cutoff cannot exceed the window"
        );
        Self {
            rct_cutoff,
            apt_window,
            apt_cutoff,
            last: None,
            run: 0,
            window_pos: 0,
            reference: false,
            matches: 0,
            bits_seen: 0,
            failures: 0,
        }
    }

    /// Feeds one bit; returns the health status after this bit.
    pub fn feed(&mut self, bit: bool) -> HealthStatus {
        self.bits_seen += 1;

        // Repetition Count Test.
        if self.last == Some(bit) {
            self.run += 1;
        } else {
            self.last = Some(bit);
            self.run = 1;
        }
        if self.run >= self.rct_cutoff {
            self.failures += 1;
            self.run = 1; // re-arm after reporting
            return HealthStatus::RepetitionFailure;
        }

        // Adaptive Proportion Test.
        if self.window_pos == 0 {
            self.reference = bit;
            self.matches = 1;
            self.window_pos = 1;
        } else {
            if bit == self.reference {
                self.matches += 1;
            }
            self.window_pos += 1;
            if self.matches >= self.apt_cutoff {
                self.failures += 1;
                self.window_pos = 0;
                return HealthStatus::ProportionFailure;
            }
            if self.window_pos == self.apt_window {
                self.window_pos = 0;
            }
        }
        HealthStatus::Ok
    }

    /// Feeds a byte string, most significant bit of each byte first.
    ///
    /// Stops right after the first bit that trips a test and returns
    /// that failure; returns `Ok` when every bit passed. Either way the
    /// monitor ends in exactly the state the same bits fed one by one
    /// through [`feed`](Self::feed) (the reference) would leave it in,
    /// counters included.
    ///
    /// Works a `u64` word at a time: a word that provably trips nothing
    /// and stays inside one APT window advances the state in a few
    /// integer operations. Any other word — one that could trip, one a
    /// window ends inside, every word when the RCT cutoff is 16 or less
    /// — and the trailing bytes go through `feed` bit by bit.
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> HealthStatus {
        let mut words = bytes.chunks_exact(8);
        for chunk in words.by_ref() {
            let word = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
            if !self.try_feed_word(word) {
                let status = self.feed_bits(word, 64);
                if status != HealthStatus::Ok {
                    return status;
                }
            }
        }
        for &byte in words.remainder() {
            let status = self.feed_bits(u64::from(byte), 8);
            if status != HealthStatus::Ok {
                return status;
            }
        }
        HealthStatus::Ok
    }

    /// The low `n` bits of `bits`, highest first, through [`feed`](Self::feed);
    /// stops at the first failure.
    fn feed_bits(&mut self, bits: u64, n: u32) -> HealthStatus {
        for i in (0..n).rev() {
            let status = self.feed((bits >> i) & 1 == 1);
            if status != HealthStatus::Ok {
                return status;
            }
        }
        HealthStatus::Ok
    }

    /// Advances the monitor over the 64 bits of `word` (MSB first) at
    /// once if no bit of it can trip either test and no APT window ends
    /// before its last bit. Returns `false`, with the state untouched,
    /// otherwise.
    ///
    /// RCT: with a cutoff above 16 and no run of 16 equal bits in the
    /// word, only the leading run can trip, and only together with the
    /// run carried in from earlier bits; the trailing run becomes the
    /// carried run. APT: matches only grow within a window, so the
    /// window cannot trip inside the word if the count after it — one
    /// `count_ones` — stays below the cutoff.
    fn try_feed_word(&mut self, word: u64) -> bool {
        if self.rct_cutoff <= 16 || has_run_of_16(word) {
            return false;
        }
        let first = word >> 63 == 1;
        let leading = if first {
            word.leading_ones()
        } else {
            word.leading_zeros()
        };
        let carried = if self.last == Some(first) {
            self.run
        } else {
            0
        };
        if carried + leading >= self.rct_cutoff {
            return false;
        }

        // A window that starts here takes the first bit as its
        // reference and first match (not checked against the cutoff,
        // as in `feed`), then counts matches among the other 63.
        let (reference, matches, pos, span, counted) = if self.window_pos == 0 {
            (first, 1, 1, 63, word & (u64::MAX >> 1))
        } else {
            (self.reference, self.matches, self.window_pos, 64, word)
        };
        let end = pos + span;
        if end > self.apt_window {
            return false;
        }
        let ones = counted.count_ones();
        let matches = matches + if reference { ones } else { span - ones };
        if matches >= self.apt_cutoff {
            return false;
        }

        let last = word & 1 == 1;
        self.last = Some(last);
        self.run = if last {
            word.trailing_ones()
        } else {
            word.trailing_zeros()
        };
        self.reference = reference;
        self.matches = matches;
        self.window_pos = if end == self.apt_window { 0 } else { end };
        self.bits_seen += 64;
        true
    }

    /// Total bits observed.
    pub fn bits_seen(&self) -> u64 {
        self.bits_seen
    }

    /// Total failures reported.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `word` holds 16 equal adjacent bits anywhere.
fn has_run_of_16(word: u64) -> bool {
    // Bit i of `same` is set when bits i and i + 1 agree (bit 63 has no
    // upper neighbour); each step doubles the agreeing span.
    let same = !(word ^ (word >> 1)) & (u64::MAX >> 1);
    let span3 = same & (same >> 1);
    let span5 = span3 & (span3 >> 2);
    let span9 = span5 & (span5 >> 4);
    span9 & (span9 >> 7) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_noise::NoiseRng;

    #[test]
    fn healthy_stream_never_trips() {
        let mut hm = HealthMonitor::new();
        let mut rng = NoiseRng::seed_from_u64(1);
        for _ in 0..1_000_000 {
            assert_eq!(hm.feed(rng.bernoulli(0.5)), HealthStatus::Ok);
        }
        assert_eq!(hm.failures(), 0);
        assert_eq!(hm.bits_seen(), 1_000_000);
    }

    #[test]
    fn stuck_source_trips_rct_quickly() {
        let mut hm = HealthMonitor::new();
        let mut tripped_at = None;
        for i in 0..100 {
            if hm.feed(true) == HealthStatus::RepetitionFailure {
                tripped_at = Some(i);
                break;
            }
        }
        assert_eq!(tripped_at, Some(31), "RCT cutoff 32 trips on the 32nd bit");
    }

    #[test]
    fn heavily_biased_source_trips_apt() {
        let mut hm = HealthMonitor::new();
        let mut rng = NoiseRng::seed_from_u64(2);
        let mut tripped = false;
        for _ in 0..100_000 {
            // 75% ones: the APT window of 1024 expects ~768 matches when
            // the reference is 1 — far over the 624 cutoff.
            match hm.feed(rng.bernoulli(0.75)) {
                HealthStatus::ProportionFailure => {
                    tripped = true;
                    break;
                }
                HealthStatus::RepetitionFailure => {}
                HealthStatus::Ok => {}
            }
        }
        assert!(tripped, "APT must catch a 75%-biased source");
    }

    #[test]
    fn mild_bias_passes() {
        // 51% ones stays under both cutoffs essentially always.
        let mut hm = HealthMonitor::new();
        let mut rng = NoiseRng::seed_from_u64(3);
        let mut failures = 0;
        for _ in 0..500_000 {
            if hm.feed(rng.bernoulli(0.51)) != HealthStatus::Ok {
                failures += 1;
            }
        }
        assert_eq!(failures, 0);
    }

    #[test]
    #[should_panic(expected = "APT cutoff cannot exceed")]
    fn invalid_cutoffs_panic() {
        let _ = HealthMonitor::with_cutoffs(32, 100, 200);
    }
}
