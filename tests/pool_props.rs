//! Property tests for the stage-graph executor's buffer pool and the
//! rollback contracts of the conditioned/drbg tiers.
//!
//! The pool invariant — every chunk buffer is created at build time and
//! then only ever *recycled* (never lost, never lent twice) — is not
//! directly observable from outside, so these properties pin its two
//! observable consequences:
//!
//! * **no loss**: a stream whose shards restart heavily (tight health
//!   cutoffs) keeps delivering indefinitely — a lost buffer would
//!   starve its shard's worker and deadlock the round-robin merge;
//! * **no double-lend**: the merged stream stays a pure function of
//!   the seed schedule under any read slicing — a buffer lent to two
//!   owners at once would be overwritten mid-drain and corrupt the
//!   merge for one of them.
//!
//! The rollback properties drive the induced-retirement path
//! (`inject_shard_failure`) and assert that however reads are sliced,
//! the total byte sequence delivered across retries is identical —
//! every healthy byte exactly once, for a conditioned session and for
//! a fail-closed drbg session (block-granularity reads).

use dh_trng::prelude::*;
use dh_trng::stream::HealthConfig;
use proptest::prelude::*;

/// Restart-heavy but recoverable cutoffs: an RCT cutoff of 12 trips on
/// any 12-bit run (frequent at 2048-bit chunks) while each retry still
/// passes often enough that a generous budget always recovers.
fn flaky_health() -> HealthConfig {
    HealthConfig {
        rct_cutoff: 12,
        apt_window: 1024,
        apt_cutoff: 624,
    }
}

/// Drains a conditioned session until its terminal error, reading
/// `read_size` bytes at a time and falling back to byte-sized retries
/// after the first failure. Returns every byte delivered.
fn drain_conditioned(mut session: Session, mut read_size: usize) -> Vec<u8> {
    let mut delivered = Vec::new();
    loop {
        let mut buf = vec![0u8; read_size];
        match session.read(&mut buf) {
            Ok(()) => delivered.extend_from_slice(&buf),
            Err(_) if read_size > 1 => read_size = 1,
            Err(_) => return delivered,
        }
    }
}

/// Drains a fail-closed drbg session until its terminal error with
/// reads of at most one block (the granularity the rewind contract
/// covers).
fn drain_drbg(mut session: Session, read_size: usize) -> Vec<u8> {
    assert!(read_size <= 64);
    let mut delivered = Vec::new();
    let mut size = read_size;
    loop {
        let mut buf = vec![0u8; size];
        match session.read(&mut buf) {
            Ok(()) => delivered.extend_from_slice(&buf),
            Err(_) if size > 1 => size = 1,
            Err(_) => return delivered,
        }
    }
}

proptest! {
    // Each case spins up real worker threads; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pool_survives_restart_storms_without_losing_or_corrupting_buffers(
        seed in any::<u64>(),
        shards in 1usize..4,
        queue_chunks in 1usize..4,
    ) {
        let chunk = 256usize;
        let build = || EntropyStream::builder()
            .shards(shards)
            .seed(seed)
            .chunk_bytes(chunk)
            .queue_chunks(queue_chunks)
            .health(flaky_health())
            .max_consecutive_restarts(4096)
            .build();
        // Enough rounds to cycle every pool buffer several times
        // through worker -> queue -> consumer -> return channel.
        let total = chunk * shards * (queue_chunks + 2) * 3;

        // No loss: the read completes (a starved worker would stall
        // its slot forever). No double-lend: a second stream with a
        // different slicing sees the identical merged bytes.
        let mut whole = build();
        let mut expect = vec![0u8; total];
        whole.read(&mut expect).expect("restart storm recovers");

        let mut sliced = build();
        let mut got = Vec::with_capacity(total);
        let size_pattern = [1usize, 7, chunk - 1, chunk + 3, 64];
        let mut sizes = size_pattern.iter().cycle();
        while got.len() < total {
            let size = (*sizes.next().unwrap()).min(total - got.len());
            let mut piece = vec![0u8; size];
            sliced.read(&mut piece).expect("restart storm recovers");
            got.extend_from_slice(&piece);
        }
        prop_assert_eq!(got, expect);

        // The pool is exactly its build-time size on both streams.
        prop_assert_eq!(whole.pool_buffers(), shards * (queue_chunks + 2));
        prop_assert_eq!(sliced.pool_buffers(), shards * (queue_chunks + 2));
    }

    #[test]
    fn conditioned_rollback_delivers_every_healthy_byte_exactly_once(
        seed in any::<u64>(),
        fail_after in 1u64..5,
        read_size in 2usize..96,
    ) {
        let build = || EntropySource::builder()
            .shards(2)
            .seed(seed)
            .chunk_bytes(256)
            .inject_shard_failure(0, fail_after)
            .build()
            .expect("valid configuration")
            .session(Tier::Conditioned);
        // However the reads are sliced, the bytes delivered across
        // retries before the terminal error must be identical: the
        // rollback contract restores everything a failed read copied.
        let by_slices = drain_conditioned(build(), read_size);
        let byte_at_a_time = drain_conditioned(build(), 1);
        prop_assert_eq!(by_slices, byte_at_a_time);
    }

    #[test]
    fn drbg_rollback_delivers_every_generated_byte_exactly_once(
        seed in any::<u64>(),
        fail_after in 1u64..4,
        read_size in 2usize..65,
    ) {
        let build = || EntropySource::builder()
            .shards(2)
            .seed(seed)
            .chunk_bytes(256)
            .drbg_config(DrbgConfig {
                // Reseed every block so the induced failure hits a
                // harvest quickly.
                reseed_interval_bits: 512,
                seed_bytes: 16,
                prediction_resistance: false,
            })
            .inject_shard_failure(0, fail_after)
            .build()
            .expect("valid configuration")
            // Fail closed: the dead source must end the drain.
            .session_with(SessionConfig::new(Tier::Drbg).stall_reseeds(false));
        let by_blocks = drain_drbg(build(), read_size);
        let byte_at_a_time = drain_drbg(build(), 1);
        prop_assert_eq!(by_blocks, byte_at_a_time);
    }
}
