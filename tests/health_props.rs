//! The word-level health gate against its bit-serial reference:
//! `HealthMonitor::feed_bytes` must leave the monitor exactly where
//! feeding the same bits one at a time through `HealthMonitor::feed`
//! leaves it — same first failing status, same failing bit, same
//! counters — over inputs with injected stuck runs and biased windows,
//! arbitrary cutoffs, and arbitrary splits across calls.

use dh_trng::prelude::*;
use proptest::prelude::*;
use rand::RngCore;

/// The reference: `bytes` MSB first through `feed`, stopping at the
/// first failure.
fn feed_serially(monitor: &mut HealthMonitor, bytes: &[u8]) -> HealthStatus {
    for &byte in bytes {
        for i in (0..8).rev() {
            let status = monitor.feed((byte >> i) & 1 == 1);
            if status != HealthStatus::Ok {
                return status;
            }
        }
    }
    HealthStatus::Ok
}

fn set_bit(bytes: &mut [u8], bit: usize, value: bool) {
    let mask = 0x80 >> (bit % 8);
    if value {
        bytes[bit / 8] |= mask;
    } else {
        bytes[bit / 8] &= !mask;
    }
}

/// `len` random bytes with `stuck_runs` runs of 10..=40 equal bits and
/// `biased_windows` 1024-bit windows where one value has probability
/// 3/4, all at seed-derived positions.
fn faulty_input(seed: u64, len: usize, stuck_runs: usize, biased_windows: usize) -> Vec<u8> {
    let mut rng = NoiseRng::seed_from_u64(seed);
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    let bits = len * 8;
    if bits == 0 {
        return bytes;
    }
    for _ in 0..stuck_runs {
        let start = (rng.next_u64() % bits as u64) as usize;
        let run = 10 + (rng.next_u64() % 31) as usize;
        let value = rng.next_u64() & 1 == 1;
        for bit in start..(start + run).min(bits) {
            set_bit(&mut bytes, bit, value);
        }
    }
    for _ in 0..biased_windows {
        let start = (rng.next_u64() % bits as u64) as usize;
        let value = rng.next_u64() & 1 == 1;
        for bit in start..(start + 1024).min(bits) {
            // Either of two fair draws: probability 3/4.
            let biased = rng.next_u64() & 3 != 0;
            set_bit(&mut bytes, bit, biased == value);
        }
    }
    bytes
}

/// Feeds `input` to a serial and a word-level monitor in seed-derived
/// pieces (empty ones included). After every trip both resume at the
/// byte after the failing bit, so each verdict after a trip is compared
/// too. Returns the number of trips seen.
fn assert_gates_agree(mut serial: HealthMonitor, input: &[u8], split_seed: u64) -> u64 {
    let mut word = serial.clone();
    let mut splits = NoiseRng::seed_from_u64(split_seed);
    let mut rest = input;
    while !rest.is_empty() {
        let take = ((splits.next_u64() % 300) as usize).min(rest.len());
        let (mut piece, tail) = rest.split_at(take);
        rest = tail;
        loop {
            let before = serial.bits_seen();
            let expected = feed_serially(&mut serial, piece);
            let got = word.feed_bytes(piece);
            assert_eq!(got, expected, "verdict at bit {before}");
            assert_eq!(word, serial, "state after the verdict at bit {before}");
            if expected == HealthStatus::Ok {
                break;
            }
            let fed = (serial.bits_seen() - before) as usize;
            piece = &piece[fed.div_ceil(8)..];
        }
    }
    serial.failures()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary valid cutoffs: RCT 2..=64 (both sides of the word
    /// path's cutoff-16 guard) and APT windows that are never a multiple
    /// of 64, so windows end inside words.
    #[test]
    fn feed_bytes_matches_the_serial_gate(
        seed in any::<u64>(),
        len in 0usize..3000,
        faults in (0usize..6, 0usize..3),
        rct_cutoff in 2u32..65,
        window in 1u32..2100,
        cutoff_share in 0.5f64..1.0,
    ) {
        let apt_window = if window % 64 == 0 { window + 1 } else { window };
        let apt_cutoff = ((f64::from(apt_window) * cutoff_share) as u32).clamp(1, apt_window);
        let input = faulty_input(seed, len, faults.0, faults.1);
        let monitor = HealthMonitor::with_cutoffs(rct_cutoff, apt_window, apt_cutoff);
        assert_gates_agree(monitor, &input, seed ^ 0x5EED);
    }

    /// The default cutoffs the shard workers run (window 1024, a
    /// multiple of 64, so windows end on word boundaries).
    #[test]
    fn feed_bytes_matches_the_serial_gate_at_default_cutoffs(
        seed in any::<u64>(),
        len in 0usize..3000,
        faults in (0usize..6, 0usize..3),
    ) {
        let input = faulty_input(seed, len, faults.0, faults.1);
        assert_gates_agree(HealthMonitor::new(), &input, seed ^ 0x5EED);
    }
}

/// The injected faults really do reach both tests' trip paths, so the
/// properties above compare failures, not only healthy streams.
#[test]
fn injected_faults_trip_both_tests() {
    let input = faulty_input(11, 64 * 1024, 40, 8);
    let mut monitor = HealthMonitor::new();
    let (mut repetition, mut proportion) = (0, 0);
    let mut rest = &input[..];
    while !rest.is_empty() {
        let before = monitor.bits_seen();
        match monitor.feed_bytes(rest) {
            HealthStatus::Ok => break,
            HealthStatus::RepetitionFailure => repetition += 1,
            HealthStatus::ProportionFailure => proportion += 1,
        }
        let fed = (monitor.bits_seen() - before) as usize;
        rest = &rest[fed.div_ceil(8)..];
    }
    assert!(
        repetition > 0 && proportion > 0,
        "{repetition} RCT / {proportion} APT trips"
    );
    assert_eq!(
        assert_gates_agree(HealthMonitor::new(), &input, 3),
        repetition + proportion
    );
}
