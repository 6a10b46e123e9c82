//! Contract tests for the session-oriented API: many concurrent
//! [`Session`]s over one shared [`EntropySource`].
//!
//! Two properties the daemon's correctness stands on:
//!
//! * **partition, not broadcast** — concurrent conditioned sessions
//!   split the shared conditioned stream; no byte is ever delivered
//!   to two sessions, and everything delivered comes verbatim from
//!   the sole-session reference stream (exactly-once at the source);
//! * **degrade, not die** — a shard retiring mid-run stalls drbg
//!   reseeds and latches the source degraded, while every live drbg
//!   session keeps serving reads; only consumers that *need* fresh
//!   source bytes (conditioned sessions, and drbg sessions configured
//!   to fail closed) see the terminal error.
//!
//! The partition check exploits the draw granularity: a conditioned
//! draw hands whole conditioner output units (chunk_bytes /
//! compression ratio bytes each) to one session, with the tail kept
//! in that session's private carry — so every session's delivered
//! stream is a unit-aligned concatenation of units from the global
//! stream, and units can be matched exactly against a sole-session
//! reference run.

use std::collections::{HashMap, HashSet};

use dh_trng::prelude::*;
use proptest::prelude::*;

const CHUNK_BYTES: usize = 512;
/// Conditioner output per engine chunk at the 2:1 CRC whitener.
const UNIT_LEN: usize = CHUNK_BYTES / 2;

fn source(seed: u64) -> EntropySource {
    EntropySource::builder()
        .shards(2)
        .seed(seed)
        .chunk_bytes(CHUNK_BYTES)
        .conditioner(ConditionerSpec::Crc { ratio: 2 })
        .build()
        .expect("valid source")
}

/// The deterministic global conditioned stream, from a sole session
/// on an identically-configured source.
fn reference_stream(seed: u64, len: usize) -> Vec<u8> {
    let mut session = source(seed).session(Tier::Conditioned);
    let mut reference = vec![0u8; len];
    session.read(&mut reference).expect("healthy reference run");
    reference
}

/// Asserts `stream` is a unit-aligned concatenation of units from
/// `units`, each unit claimed at most once across calls (shared
/// `used` set). Returns how many whole units the stream claimed.
fn claim_units(
    stream: &[u8],
    units: &HashMap<&[u8], usize>,
    used: &mut HashSet<usize>,
    session: usize,
) {
    for piece in stream.chunks(UNIT_LEN) {
        if piece.len() == UNIT_LEN {
            let &index = units
                .get(piece)
                .unwrap_or_else(|| panic!("session {session}: unit not in the reference stream"));
            assert!(
                used.insert(index),
                "session {session}: unit {index} delivered twice — overlapping sessions"
            );
        } else {
            // The final partial unit: must be the prefix of some unit
            // nobody has claimed (its tail is still in this session's
            // private carry).
            let matches: Vec<usize> = units
                .iter()
                .filter(|(unit, index)| unit.starts_with(piece) && !used.contains(index))
                .map(|(_, &index)| index)
                .collect();
            assert!(
                !matches.is_empty(),
                "session {session}: trailing fragment not in the reference stream"
            );
            if let [index] = matches[..] {
                used.insert(index);
            }
        }
    }
}

proptest! {
    // Thread-heavy cases; a handful of generated schedules is plenty.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// However concurrent reads interleave, the sessions partition
    /// the conditioned stream: every delivered unit comes from the
    /// reference stream and lands in exactly one session.
    #[test]
    fn concurrent_sessions_partition_the_conditioned_stream(
        seed in 1u64..1 << 48,
        schedules in proptest::collection::vec(
            proptest::collection::vec(16usize..301, 2..6),
            2..5,
        ),
    ) {
        let source = source(seed);
        let streams: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let workers: Vec<_> = schedules
                .iter()
                .map(|schedule| {
                    let mut session = source.session(Tier::Conditioned);
                    scope.spawn(move || {
                        let mut delivered = Vec::new();
                        for &len in schedule {
                            let mut buf = vec![0u8; len];
                            session.read(&mut buf).expect("healthy source");
                            delivered.extend_from_slice(&buf);
                        }
                        delivered
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("no panics")).collect()
        });

        let total: usize = streams.iter().map(Vec::len).sum();
        // Long enough to cover every unit any session drew, including
        // tails parked in carries.
        let reference = reference_stream(seed, total + (schedules.len() + 2) * UNIT_LEN);
        let units: HashMap<&[u8], usize> = reference
            .chunks_exact(UNIT_LEN)
            .enumerate()
            .map(|(index, unit)| (unit, index))
            .collect();
        prop_assert_eq!(units.len(), reference.len() / UNIT_LEN, "reference units collide");

        let mut used = HashSet::new();
        for (session, stream) in streams.iter().enumerate() {
            claim_units(stream, &units, &mut used, session);
        }
    }
}

#[test]
fn retirement_mid_run_degrades_drbg_sessions_without_killing_them() {
    const SESSIONS: usize = 4;
    const READS: usize = 48;
    let source = EntropySource::builder()
        .shards(2)
        .seed(97)
        .chunk_bytes(CHUNK_BYTES)
        .conditioner(ConditionerSpec::Crc { ratio: 2 })
        .inject_shard_failure(0, 2)
        .max_consecutive_restarts(0)
        .drbg_config(DrbgConfig {
            reseed_interval_bits: 512,
            ..Default::default()
        })
        .build()
        .expect("valid source");

    // Prime every session while the doomed shard is still alive, the
    // way the daemon primes at Hello time: post-handshake retirement
    // must never kill a live session.
    let mut sessions: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let mut session = source.session(Tier::Drbg);
            session.prime().expect("shard still alive at handshake");
            session
        })
        .collect();

    let outputs: Vec<Vec<[u8; 64]>> = std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .drain(..)
            .map(|mut session| {
                scope.spawn(move || {
                    let mut reads = Vec::with_capacity(READS);
                    for _ in 0..READS {
                        let mut buf = [0u8; 64];
                        session
                            .read(&mut buf)
                            .expect("drbg sessions must survive shard retirement");
                        reads.push(buf);
                    }
                    assert!(session.is_degraded(), "retirement must reach every session");
                    assert!(session.stalled_reseeds() > 0);
                    reads
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("no panics"))
            .collect()
    });

    // The shared source has latched the failure...
    let stats = source.stats();
    assert!(
        stats.degraded.is_some(),
        "retirement must latch on the source"
    );
    assert!(stats.stalled_reseeds > 0);
    assert!(!stats.degraded.expect("latched").is_retriable());

    // ...every delivered block is still unique across all sessions...
    let mut seen = HashSet::new();
    for block in outputs.iter().flatten() {
        assert!(
            seen.insert(*block),
            "duplicated drbg output across sessions"
        );
    }
    assert_eq!(seen.len(), SESSIONS * READS);

    // ...and a consumer that needs fresh source bytes sees the
    // terminal error instead of silently re-used entropy.
    let mut conditioned = source.session(Tier::Conditioned);
    let mut buf = [0u8; 64];
    let error = conditioned.read(&mut buf).expect_err("source is dead");
    assert!(!error.is_retriable());
}

/// The failure policy is per session: on one dying source, a fail-closed
/// drbg session (`stall_reseeds(false)`) surfaces the retirement as its
/// read's error, and keeps surfacing it, while a default sibling stalls
/// its reseeds and keeps serving. Only the sibling counts as stalled.
#[test]
fn fail_closed_sessions_error_where_stalling_siblings_keep_serving() {
    const READS: usize = 48;
    let source = EntropySource::builder()
        .shards(2)
        .seed(97)
        .chunk_bytes(CHUNK_BYTES)
        .conditioner(ConditionerSpec::Crc { ratio: 2 })
        .inject_shard_failure(0, 2)
        .max_consecutive_restarts(0)
        .drbg_config(DrbgConfig {
            reseed_interval_bits: 512,
            ..Default::default()
        })
        .build()
        .expect("valid source");
    let mut stalling = source.session(Tier::Drbg);
    let mut fail_closed = source.session_with(SessionConfig::new(Tier::Drbg).stall_reseeds(false));
    stalling.prime().expect("shard still alive at handshake");
    fail_closed.prime().expect("shard still alive at handshake");

    // One 64-byte block per reseed: the two sessions' harvests drain
    // the 4 healthy chunks within a few dozen reads.
    let mut buf = [0u8; 64];
    let mut failure = None;
    for _ in 0..READS {
        stalling
            .read(&mut buf)
            .expect("a stalling session survives shard retirement");
        if failure.is_none() {
            failure = fail_closed.read(&mut buf).err();
        }
    }
    let failure = failure.expect("the retirement must reach the fail-closed session");
    assert!(
        matches!(failure, Error::ShardFailed { shard: 0, .. }),
        "{failure}"
    );
    assert!(!failure.is_retriable());

    // Fail closed for good: the next read fails the same way and
    // delivers nothing, and no stale re-key ever happened.
    let delivered = fail_closed.bytes_delivered();
    assert_eq!(fail_closed.read(&mut buf), Err(failure));
    assert_eq!(fail_closed.bytes_delivered(), delivered);
    assert!(!fail_closed.is_degraded());
    assert_eq!(fail_closed.stalled_reseeds(), 0);

    assert!(stalling.is_degraded());
    assert!(stalling.stalled_reseeds() > 0);
    let stats = source.stats();
    assert_eq!(stats.degraded, Some(failure));
    assert_eq!(
        stats.stalled_reseeds,
        stalling.stalled_reseeds(),
        "only the stalling session stalls"
    );
}

/// The stage telemetry and the session bookkeeping are two independent
/// tallies of the same events — the arbiter counts stalls per session,
/// the `Telemetry` block counts them per stall event. After an injected
/// terminal failure they must agree exactly, and the snapshot must
/// carry the retirement and the session's delivered bytes.
#[test]
fn telemetry_agrees_with_session_bookkeeping_after_terminal_failure() {
    const READS: usize = 48;
    const READ_LEN: usize = 64;
    let source = EntropySource::builder()
        .shards(2)
        .seed(97)
        .chunk_bytes(CHUNK_BYTES)
        .conditioner(ConditionerSpec::Crc { ratio: 2 })
        .inject_shard_failure(0, 2)
        .max_consecutive_restarts(0)
        .drbg_config(DrbgConfig {
            reseed_interval_bits: 512,
            ..Default::default()
        })
        .build()
        .expect("valid source");

    let mut session = source.session(Tier::Drbg);
    session.prime().expect("shard still alive at handshake");
    let mut buf = [0u8; READ_LEN];
    for _ in 0..READS {
        session
            .read(&mut buf)
            .expect("drbg sessions must survive shard retirement");
    }
    assert!(session.is_degraded(), "retirement must reach the session");
    assert!(session.stalled_reseeds() > 0);

    let stats = source.stats();
    assert!(stats.degraded.is_some(), "retirement must latch in stats");
    // One session, so all three stall tallies see the same events:
    // the session's private count, the arbiter's shared count, and
    // the stage-telemetry counter.
    assert_eq!(stats.stalled_reseeds, session.stalled_reseeds());
    assert_eq!(stats.telemetry.reseeds_stalled, stats.stalled_reseeds);
    // Every granted reseed (including the prime-time instantiate
    // harvest) is mirrored one-for-one.
    assert_eq!(stats.telemetry.reseeds_granted, stats.reseeds_served);
    assert!(stats.reseeds_served >= 1, "prime harvests once");
    // Exactly the injected retirement, and every delivered session
    // byte accounted for.
    assert_eq!(stats.telemetry.retirements, 1);
    assert_eq!(stats.telemetry.session_bytes, (READS * READ_LEN) as u64);
    assert_eq!(stats.telemetry.session_bytes, session.bytes_delivered());
    // The live handle reads the same counters stats() snapshotted.
    // (Only the session-side fields: the surviving shard's worker may
    // still be filling its rings between the two snapshots.)
    let snapshot = source.metrics().snapshot();
    assert_eq!(snapshot.reseeds_stalled, stats.telemetry.reseeds_stalled);
    assert_eq!(snapshot.reseeds_granted, stats.telemetry.reseeds_granted);
    assert_eq!(snapshot.retirements, stats.telemetry.retirements);
    assert_eq!(snapshot.session_bytes, stats.telemetry.session_bytes);
}

#[test]
fn quotas_are_per_session_not_per_source() {
    let source = source(5);
    let mut metered = source.session_with(SessionConfig::new(Tier::Drbg).quota(64));
    let mut unmetered = source.session(Tier::Drbg);

    let mut buf = [0u8; 64];
    metered.read(&mut buf).expect("within quota");
    let error = metered.read(&mut [0u8; 1]).expect_err("quota spent");
    assert!(matches!(
        error,
        dh_trng::stream::Error::QuotaExceeded { .. }
    ));
    assert_eq!(metered.quota_remaining(), Some(0));

    // The sibling session is untouched by its neighbour's quota.
    unmetered.read(&mut buf).expect("unmetered");
    assert_eq!(unmetered.quota_remaining(), None);
}
