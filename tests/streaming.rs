//! Integration tests for the sharded streaming engine through the
//! facade: determinism under a fixed shard-seed schedule, equivalence
//! with the underlying single-instance streams, health-driven restarts,
//! and the `rand` adapter.

use dh_trng::prelude::*;
use dh_trng::stream::HealthConfig;
use rand::RngCore;

const CHUNK: usize = 1024;

fn fixed_schedule_stream() -> EntropyStream {
    EntropyStream::builder()
        .shards(4)
        .shard_seeds(vec![0xA1, 0xB2, 0xC3, 0xD4])
        .chunk_bytes(CHUNK)
        .build()
}

#[test]
fn n_shard_stream_is_deterministic_under_fixed_seed_schedule() {
    let mut runs = Vec::new();
    for _ in 0..3 {
        let mut stream = fixed_schedule_stream();
        let mut buf = vec![0u8; 64 * 1024];
        stream.read(&mut buf).expect("healthy stream");
        runs.push(buf);
    }
    assert_eq!(runs[0], runs[1], "thread scheduling must not leak in");
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn merged_stream_is_the_round_robin_of_the_shard_streams() {
    let seeds = [0xA1u64, 0xB2, 0xC3, 0xD4];
    let mut stream = fixed_schedule_stream();
    let chunks = 12; // three full rounds of the 4 shards
    let mut merged = vec![0u8; CHUNK * chunks];
    stream.read(&mut merged).expect("healthy stream");

    // Chunk k of the merge is the next chunk of shard k % 4, where each
    // shard is just a DH-TRNG on its schedule seed.
    let mut shard_trngs: Vec<DhTrng> = seeds
        .iter()
        .map(|&s| DhTrng::builder().seed(s).build())
        .collect();
    let mut reference = Vec::with_capacity(merged.len());
    for k in 0..chunks {
        let mut chunk = vec![0u8; CHUNK];
        // Disambiguated: `rand::RngCore` is in scope and also has a
        // `fill_bytes` (which routes here anyway).
        Trng::fill_bytes(&mut shard_trngs[k % 4], &mut chunk);
        reference.extend_from_slice(&chunk);
    }
    assert_eq!(merged, reference);
    assert_eq!(stream.restarts(), 0, "healthy shards never restart");
}

#[test]
fn stream_rng_fills_a_mebibyte_across_four_shards() {
    let mut rng = StreamRng::with_shards(4, 0xFEED);
    let mut payload = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut payload);
    let ones: u64 = payload.iter().map(|b| u64::from(b.count_ones())).sum();
    let frac = ones as f64 / (payload.len() as f64 * 8.0);
    assert!((frac - 0.5).abs() < 0.001, "ones fraction = {frac}");
    assert_eq!(rng.stream().bytes_delivered(), 1 << 20);
    assert_eq!(rng.stream().shards(), 4);
}

#[test]
fn strict_health_cutoffs_trigger_restarts_then_recovery() {
    // An RCT cutoff of 12 trips on any 12-bit run; a 1 KiB chunk (8192
    // bits) contains one with probability ~1 - (1 - 2^-11)^8192 ~ 98%,
    // so shards restart frequently — but each retry passes with ~2%
    // probability, so with a generous budget the stream still delivers.
    let mut stream = EntropyStream::builder()
        .shards(2)
        .shard_seeds(vec![0x11, 0x22])
        .chunk_bytes(CHUNK)
        .health(HealthConfig {
            rct_cutoff: 12,
            apt_window: 1024,
            apt_cutoff: 624,
        })
        .max_consecutive_restarts(1024)
        .build();
    let mut buf = vec![0u8; 8 * CHUNK];
    stream.read(&mut buf).expect("stream recovers via restarts");
    assert!(
        stream.restarts() > 0,
        "strict cutoffs must have caused restarts"
    );
    // Determinism holds even through the restart machinery.
    let mut replay = EntropyStream::builder()
        .shards(2)
        .shard_seeds(vec![0x11, 0x22])
        .chunk_bytes(CHUNK)
        .health(HealthConfig {
            rct_cutoff: 12,
            apt_window: 1024,
            apt_cutoff: 624,
        })
        .max_consecutive_restarts(1024)
        .build();
    let mut buf2 = vec![0u8; 8 * CHUNK];
    replay
        .read(&mut buf2)
        .expect("same schedule, same recovery");
    assert_eq!(buf, buf2);
    // The *delivered bytes* are deterministic; the restart counters are
    // live worker statistics (workers generate ahead into their queues),
    // so only their sign is portable across runs.
    assert!(replay.restarts() > 0);
}

#[test]
fn shard_retirement_keeps_the_merge_order_deterministic() {
    // The retirement contract (see `EntropyStream::read`): a retired
    // shard's error surfaces exactly when the round-robin cursor
    // reaches its slot — every chunk merged before that slot is
    // delivered, and the delivered prefix is a pure function of the
    // seed schedule and the failing shard's chunk count. Retire shard
    // 1 of 3 after 2 chunks, partway through a single large read.
    const RETIRE_AFTER: u64 = 2;
    let seeds = vec![0xE1u64, 0xE2, 0xE3];
    let mut doomed = EntropyStream::builder()
        .shards(3)
        .shard_seeds(seeds.clone())
        .chunk_bytes(CHUNK)
        .inject_shard_failure(1, RETIRE_AFTER)
        .build();

    // Rounds 0 and 1 are complete (shard 1 contributes its 2 chunks);
    // round 2 delivers shard 0's chunk, then shard 1's slot holds the
    // obituary: exactly 7 chunks precede the error.
    let mut oversized = vec![0u8; 16 * CHUNK];
    let err = doomed.read(&mut oversized).unwrap_err();
    assert_eq!(
        err,
        Error::ShardFailed {
            shard: 1,
            consecutive_restarts: 0
        }
    );
    assert_eq!(
        doomed.bytes_delivered(),
        7 * CHUNK as u64,
        "error surfaces at the retired shard's round-robin slot"
    );

    // The delivered prefix matches the all-healthy merge bit for bit.
    let mut healthy = EntropyStream::builder()
        .shards(3)
        .shard_seeds(seeds)
        .chunk_bytes(CHUNK)
        .build();
    let mut reference = vec![0u8; 7 * CHUNK];
    healthy.read(&mut reference).unwrap();
    assert_eq!(&oversized[..7 * CHUNK], &reference[..]);

    // The failure is sticky, and so is the reported cause.
    assert_eq!(doomed.read(&mut [0u8; 1]).unwrap_err(), err);
    assert_eq!(doomed.failed(), Some(err));
}

#[test]
fn dead_stream_reports_typed_error_through_try_fill_bytes() {
    // Impossible cutoffs: every chunk fails, the budget burns out, and
    // the adapter's fallible path surfaces it instead of hanging.
    let stream = EntropyStream::builder()
        .shards(2)
        .seed(3)
        .chunk_bytes(256)
        .health(HealthConfig {
            rct_cutoff: 2,
            apt_window: 64,
            apt_cutoff: 64,
        })
        .max_consecutive_restarts(2)
        .build();
    let mut rng = StreamRng::new(stream);
    let mut buf = [0u8; 64];
    assert!(rng.try_fill_bytes(&mut buf).is_err());
    assert!(matches!(
        rng.stream().failed(),
        Some(Error::ShardFailed { shard: 0, .. })
    ));
}
