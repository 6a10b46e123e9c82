//! Single-threaded replays of the live data path through the same
//! public functions the shard workers, the merge and the sessions
//! call, timed span by span from outside.

use std::hint::black_box;
use std::time::Instant;

use dhtrng_core::conditioning::CrcWhitener;
use dhtrng_core::drbg::{DrbgConfig, HashDrbg, BLOCK_BYTES};
use dhtrng_core::kernel::{BitBlock, ConditionerStage, Stage};
use dhtrng_core::{DhTrng, DhTrngConfig, HealthMonitor, HealthStatus, Trng};
use dhtrng_stream::{ring, EntropyStreamBuilder, HealthConfig};

use crate::measure::nanos;
use crate::trace::Tracer;

/// The engine's default merge granularity (every workload uses it).
pub const CHUNK_BYTES: usize = 64 * 1024;
/// The engine's default per-shard queue depth.
pub const QUEUE_CHUNKS: usize = 4;
/// The engine's default consecutive-restart budget per chunk.
const MAX_CONSECUTIVE_RESTARTS: u32 = 16;

/// 64-bit digest of a byte string (multiply-rotate over 8-byte words);
/// used to compare the live stream with its replay without keeping the
/// live bytes in memory.
pub fn digest(bytes: &[u8]) -> u64 {
    let mix = |h: u64, word: u64| {
        (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    for word in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// The merged raw stream rebuilt from public calls only:
/// `derive_shard_seed` → `DhTrng::new` per shard → `fill_bytes`, each
/// chunk gated through a persistent default health monitor (a tripped
/// chunk replays `DhTrng::restart` and a fresh monitor, as the shard
/// worker does), chunks merged round-robin at the engine's chunk size.
pub struct RawReplay {
    shards: Vec<(DhTrng, HealthMonitor)>,
    health: HealthConfig,
    chunk: Vec<u8>,
    offset: usize,
    next_shard: usize,
    /// Set when a shard would have retired: the replay cannot go on.
    pub retired: bool,
}

impl RawReplay {
    pub fn new(source_seed: u64, shards: usize) -> Self {
        let health = HealthConfig::default();
        let shards = (0..shards as u64)
            .map(|index| {
                let config = DhTrngConfig {
                    seed: EntropyStreamBuilder::derive_shard_seed(source_seed, index),
                    ..DhTrngConfig::default()
                };
                (DhTrng::new(config), health.monitor())
            })
            .collect();
        Self {
            shards,
            health,
            chunk: vec![0; CHUNK_BYTES],
            offset: CHUNK_BYTES,
            next_shard: 0,
            retired: false,
        }
    }

    /// Generates and health-gates the next merged chunk.
    fn refill(&mut self, tracer: &mut Tracer, parent: u64, seq: u64) {
        let shard_count = self.shards.len();
        let (trng, monitor) = &mut self.shards[self.next_shard];
        let chunk = &mut self.chunk;
        let mut restarts = 0;
        loop {
            tracer.time(parent, seq, "trng.fill_bytes", || trng.fill_bytes(chunk));
            let healthy = tracer.time(parent, seq, "health.gate", || {
                chunk_is_healthy(monitor, chunk)
            });
            if healthy {
                break;
            }
            if restarts == MAX_CONSECUTIVE_RESTARTS {
                self.retired = true;
                break;
            }
            restarts += 1;
            trng.restart();
            *monitor = self.health.monitor();
        }
        self.offset = 0;
        self.next_shard = (self.next_shard + 1) % shard_count;
    }

    /// Fills `out` with the next merged bytes.
    pub fn read(&mut self, out: &mut [u8], tracer: &mut Tracer, parent: u64, seq: u64) {
        let mut written = 0;
        while written < out.len() {
            if self.offset == self.chunk.len() {
                self.refill(tracer, parent, seq);
            }
            let take = (out.len() - written).min(self.chunk.len() - self.offset);
            let (dest, src) = (
                &mut out[written..written + take],
                &self.chunk[self.offset..self.offset + take],
            );
            tracer.time(parent, seq, "exec.merge_copy", || dest.copy_from_slice(src));
            self.offset += take;
            written += take;
        }
    }
}

/// The shard worker's health gate: every bit, MSB first, through the
/// monitor; `false` as soon as one trips it.
fn chunk_is_healthy(monitor: &mut HealthMonitor, chunk: &[u8]) -> bool {
    chunk.iter().all(|&byte| {
        (0..8)
            .rev()
            .all(|i| monitor.feed((byte >> i) & 1 == 1) == HealthStatus::Ok)
    })
}

/// Chunks replayed by [`replay_sample`].
const SAMPLE_CHUNKS: u64 = 16;
/// DRBG blocks and reseeds replayed by [`replay_sample`].
const SAMPLE_BLOCKS: u64 = 4096;
const SAMPLE_RESEEDS: u64 = 512;

/// Replays a sample of the conditioned/DRBG data path under a `replay`
/// root span: generation, health gate and merge of [`SAMPLE_CHUNKS`]
/// chunks, each conditioned by `ConditionerStage` over
/// `CrcWhitener::new(2)` (the `ConditionerSpec` default), then
/// `HashDrbg` generate and reseed calls keyed from the conditioned
/// bytes.
pub fn replay_sample(source_seed: u64, shards: usize, tracer: &mut Tracer) {
    let parent = tracer.reserve();
    let start = Instant::now();
    let mut raw = RawReplay::new(source_seed, shards);
    let mut stage = ConditionerStage::new(CrcWhitener::new(2));
    let mut buf = vec![0u8; CHUNK_BYTES];
    let mut emitted = 0;
    for seq in 0..SAMPLE_CHUNKS {
        raw.read(&mut buf, tracer, parent, seq);
        emitted = tracer.time(parent, seq, "conditioning.process", || {
            let mut block = BitBlock::full(&mut buf);
            stage.process(&mut block);
            block.whole_bytes()
        });
    }
    let seed_bytes = DrbgConfig::default().seed_bytes;
    assert!(emitted >= seed_bytes, "a conditioned chunk keys the DRBG");
    let material = &buf[..seed_bytes];
    let mut drbg = HashDrbg::instantiate(material, DrbgConfig::default());
    let mut block = [0u8; BLOCK_BYTES];
    for seq in 0..SAMPLE_BLOCKS {
        if drbg.needs_reseed() {
            tracer.time(parent, seq, "drbg.reseed", || drbg.reseed(material));
        }
        tracer.time(parent, seq, "drbg.generate", || {
            drbg.generate(&mut block).expect("reseeded above");
            black_box(&block);
        });
    }
    for seq in 0..SAMPLE_RESEEDS {
        tracer.time(parent, seq, "drbg.reseed", || {
            drbg.reseed(black_box(material))
        });
    }
    tracer.record(parent, 0, 0, "replay", start, Instant::now());
}

/// The measurements every traced run adds after its replay: 64 timed
/// `CrcWhitener::new(2)` builds (the table build every source pays at
/// set-up) and the ring hand-off. Returns ns per hand-off.
pub fn side_measurements(tracer: &mut Tracer) -> f64 {
    for seq in 0..64 {
        tracer.time(0, seq, "conditioning.build", || {
            black_box(CrcWhitener::new(2));
        });
    }
    ring_handoff_ns(20_000, tracer)
}

/// Cross-thread `ring::spsc` hand-off at the engine's queue depth:
/// `trips` push→pop round trips through an echo thread, halved.
/// Returns ns per hand-off.
fn ring_handoff_ns(trips: u64, tracer: &mut Tracer) -> f64 {
    let (mut to_echo, mut echo_rx) = ring::spsc::<u64>(QUEUE_CHUNKS);
    let (mut echo_tx, mut back) = ring::spsc::<u64>(QUEUE_CHUNKS);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(token) = echo_rx.pop() {
                if echo_tx.push(token).is_err() {
                    break;
                }
            }
        });
        let start = Instant::now();
        for token in 0..trips {
            assert!(to_echo.push(token).is_ok(), "echo thread alive");
            assert_eq!(back.pop().ok(), Some(token), "echo returns the token");
        }
        let end = Instant::now();
        // Hanging up ends the echo loop; the scope joins it.
        drop(to_echo);
        tracer.span(0, 0, "ring.pingpong", start, end);
        nanos(end - start) as f64 / trips as f64 / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_stream::{EntropySource, Tier};

    #[test]
    fn replay_matches_a_live_two_shard_stream() {
        let source = EntropySource::builder()
            .shards(2)
            .seed(99)
            .build()
            .expect("valid configuration");
        let mut session = source.session(Tier::Raw);
        let mut live = vec![0u8; 3 * CHUNK_BYTES + 100];
        session.read(&mut live).expect("healthy");

        let mut replay = RawReplay::new(99, 2);
        let mut want = vec![0u8; live.len()];
        replay.read(&mut want, &mut Tracer::off(), 0, 0);
        assert!(!replay.retired);
        assert_eq!(live, want);
    }

    #[test]
    fn digest_sees_every_byte() {
        let a = vec![7u8; 1001];
        let mut b = a.clone();
        b[1000] ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a[..1000]), digest(&a));
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn ring_handoff_is_measured() {
        let mut tracer = Tracer::new(Instant::now(), 0, 16);
        assert!(ring_handoff_ns(100, &mut tracer) > 0.0);
        assert_eq!(tracer.into_spans().len(), 1);
    }
}
