//! The bit-sliced kernel's equivalence contract: every lane of a
//! `SlicedKernel` is bit-identical to a same-configured scalar
//! generator — over random configurations (property-tested across beat
//! counts, probability corners, feedback on/off), over degenerate lane
//! counts (< 64 instances, exercising the padding), at the full
//! 64-lane width, and against every tier of the streaming engine, whose
//! shard workers a bank can stand in for.

use dh_trng::core::batch::MAX_BEATS;
use dh_trng::core::model::BeatOscillator;
use dh_trng::core::slice::{Lane, SlicedKernel, MAX_LANES};
use dh_trng::core::BlockKernel;
use dh_trng::prelude::*;
use proptest::prelude::*;

/// A randomly-drawn lane configuration: the proptest cases sweep bank
/// size, the Eq. 5 probability knobs (including their edges), and the
/// feedback line.
#[derive(Debug, Clone)]
struct LaneSpec {
    seed: u64,
    beats: usize,
    p_rand: f64,
    bias: f64,
    feedback: bool,
}

fn lane_spec() -> impl Strategy<Value = LaneSpec> {
    // Bias edges: disabled, denormal-small, the calibrated order of
    // magnitude, and large enough that bernoulli(2 * bias) saturates.
    const BIAS_EDGES: [f64; 5] = [0.0, 1e-18, 7.2e-5, 0.25, 0.5];
    (
        any::<u64>(),
        1..MAX_BEATS + 1,
        0..4usize,
        0..BIAS_EDGES.len(),
        any::<bool>(),
    )
        .prop_map(|(seed, beats, p_rand_pick, bias_pick, feedback)| LaneSpec {
            seed,
            beats,
            // Both saturation edges plus seed-derived interior points.
            p_rand: match p_rand_pick {
                0 => 0.0,
                1 => 1.0,
                _ => (seed >> 11) as f64 / (1u64 << 53) as f64,
            },
            bias: BIAS_EDGES[bias_pick],
            feedback,
        })
}

fn build_lane(spec: &LaneSpec) -> Lane {
    let mut rng = NoiseRng::seed_from_u64(spec.seed ^ 0x1AB0);
    let bank: Vec<BeatOscillator> = (0..spec.beats)
        .map(|_| BeatOscillator::new(rng.uniform(), rng.uniform(), 0.1 + 0.8 * rng.uniform()))
        .collect();
    let mults: Vec<f64> = (0..spec.beats).map(|_| rng.uniform()).collect();
    Lane::new(
        bank,
        spec.p_rand,
        spec.bias,
        spec.feedback.then_some((0.3, mults)),
        NoiseRng::seed_from_u64(spec.seed).state(),
    )
}

/// The scalar continuation of a lane snapshot: the `BlockKernel` (itself
/// pinned bit-for-bit against the per-bit `Trng` paths by the batching
/// suite) plus a resumed `NoiseRng`.
fn scalar_words(lane: &Lane, spec: &LaneSpec, words: usize) -> Vec<u64> {
    let mults: Vec<f64> = {
        let mut rng = NoiseRng::seed_from_u64(spec.seed ^ 0x1AB0);
        for _ in 0..spec.beats * 3 {
            rng.uniform(); // skip the bank draws to reach the multipliers
        }
        (0..spec.beats).map(|_| rng.uniform()).collect()
    };
    let feedback = spec.feedback.then_some((0.3, &mults[..]));
    let mut kernel = BlockKernel::new(lane.beats(), spec.p_rand, spec.bias, feedback)
        .expect("specs never exceed MAX_BEATS");
    let mut rng = NoiseRng::from_state(NoiseRng::seed_from_u64(spec.seed).state());
    (0..words).map(|_| kernel.next_bits(&mut rng, 64)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lane of a randomly-configured kernel matches its scalar
    /// twin over 512 cycles — random beat counts 1..=MAX_BEATS, edge
    /// probabilities, mixed feedback, random lane counts.
    #[test]
    fn every_lane_matches_a_same_configured_scalar_kernel(
        specs in proptest::collection::vec(lane_spec(), 1..10)
    ) {
        let lanes: Vec<Lane> = specs.iter().map(build_lane).collect();
        let mut sliced = SlicedKernel::new(&lanes).expect("valid lane specs");
        let mut got: Vec<Vec<u64>> = vec![Vec::new(); lanes.len()];
        for _ in 0..8 {
            for (lane, word) in sliced.generate(64).iter().enumerate() {
                got[lane].push(*word);
            }
        }
        for (lane, spec) in specs.iter().enumerate() {
            prop_assert_eq!(
                &got[lane],
                &scalar_words(&lanes[lane], spec, 8),
                "lane {} of {:?}", lane, spec
            );
        }
    }
}

/// Degenerate lane counts: a bank of fewer than 64 (and fewer than the
/// internal lane stride) instances pads internally, and every real lane
/// still reproduces its scalar `DhTrng` twin exactly.
#[test]
fn under_populated_banks_pad_without_perturbing_real_lanes() {
    for lanes in [1usize, 2, 3, 5, 13] {
        let instances: Vec<DhTrng> = (0..lanes)
            .map(|i| DhTrng::builder().seed(7000 + i as u64).build())
            .collect();
        let mut bank = SlicedDhTrng::new(instances).unwrap();
        let mut chunks: Vec<Option<Vec<u8>>> = (0..lanes).map(|_| Some(vec![0u8; 256])).collect();
        bank.fill_lane_chunks(&mut chunks);
        for (lane, chunk) in chunks.iter().enumerate() {
            let mut scalar = DhTrng::builder().seed(7000 + lane as u64).build();
            let mut expect = vec![0u8; 256];
            scalar.fill_bytes(&mut expect);
            assert_eq!(
                chunk.as_deref(),
                Some(&expect[..]),
                "lane {lane} of a {lanes}-lane bank"
            );
        }
    }
}

/// The lane-capacity edge: exactly MAX_LANES instances slice fine, so
/// one bank can stand in for a deployment at the engine's shard
/// ceiling (64).
#[test]
fn full_width_bank_is_accepted_and_lane_exact() {
    let instances: Vec<DhTrng> = (0..MAX_LANES)
        .map(|i| DhTrng::builder().seed(100 + i as u64).build())
        .collect();
    let mut bank = SlicedDhTrng::new(instances).unwrap();
    let mut chunks: Vec<Option<Vec<u8>>> = (0..MAX_LANES).map(|_| Some(vec![0u8; 16])).collect();
    bank.fill_lane_chunks(&mut chunks);
    for probe in [0usize, 31, 63] {
        let mut scalar = DhTrng::builder().seed(100 + probe as u64).build();
        let mut expect = vec![0u8; 16];
        scalar.fill_bytes(&mut expect);
        assert_eq!(chunks[probe].as_deref(), Some(&expect[..]), "lane {probe}");
    }
}

/// A recorded byte stream replayed as a `Trng`, most significant bit
/// first, so the core conditioning adaptors can run over it.
struct Replay {
    bytes: Vec<u8>,
    bit: usize,
}

impl Trng for Replay {
    fn next_bit(&mut self) -> bool {
        let bit = (self.bytes[self.bit / 8] >> (7 - self.bit % 8)) & 1 == 1;
        self.bit += 1;
        bit
    }
}

/// The engine's deterministic merge over a sliced bank: lane `i` is
/// seeded like shard `i` of a `seed`-mastered deployment, and each
/// round appends every lane's next `chunk` bytes in lane order.
fn merged_bank_stream(shards: u64, seed: u64, chunk: usize, rounds: usize) -> Vec<u8> {
    let instances: Vec<DhTrng> = (0..shards)
        .map(|i| {
            DhTrng::builder()
                .seed(EntropyStreamBuilder::derive_shard_seed(seed, i))
                .build()
        })
        .collect();
    let mut bank = SlicedDhTrng::new(instances).expect("1..=MAX_LANES lanes");
    let mut merged = Vec::new();
    for _ in 0..rounds {
        let mut chunks: Vec<Option<Vec<u8>>> =
            (0..shards).map(|_| Some(vec![0u8; chunk])).collect();
        bank.fill_lane_chunks(&mut chunks);
        merged.extend(chunks.into_iter().flatten().flatten());
    }
    merged
}

/// The library kernel stands in for the engine's shard workers: a bank
/// seeded with the engine's shard schedule and merged chunk by chunk
/// reproduces a sole session at every tier, the raw tier verbatim and
/// the conditioned and drbg tiers through the core `Conditioned` and
/// `Drbg` adaptors over the merged bytes.
#[test]
fn sliced_bank_reproduces_every_tier_of_the_engine() {
    const SHARDS: usize = 3;
    const SEED: u64 = 90;
    const CHUNK: usize = 512;
    const READ: usize = 2048;
    // The conditioned tier compresses 2:1, so READ bytes of it need
    // 2 * READ raw bytes: 8 chunks, inside 4 rounds of 3.
    let merged = merged_bank_stream(SHARDS as u64, SEED, CHUNK, 4);
    let conditioned = || {
        Conditioned::new(
            Replay {
                bytes: merged.clone(),
                bit: 0,
            },
            CrcWhitener::new(2),
        )
    };
    for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
        let mut session = EntropySource::builder()
            .shards(SHARDS)
            .seed(SEED)
            .chunk_bytes(CHUNK)
            .build()
            .expect("valid configuration")
            .session(tier);
        let mut got = vec![0u8; READ];
        session.read(&mut got).expect("healthy");

        let mut want = vec![0u8; READ];
        match tier {
            Tier::Raw => want.copy_from_slice(&merged[..READ]),
            Tier::Conditioned => Trng::fill_bytes(&mut conditioned(), &mut want),
            Tier::Drbg => Trng::fill_bytes(
                &mut Drbg::new(conditioned(), DrbgConfig::default()),
                &mut want,
            ),
        }
        assert_eq!(got, want, "{tier:?}");
    }
}
