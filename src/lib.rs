//! DH-TRNG reproduction — umbrella crate.
//!
//! Re-exports the whole workspace behind one dependency, so downstream
//! users (and the examples and integration tests in this repository) can
//! write `use dh_trng::prelude::*;` and reach every layer:
//!
//! * [`core`] — the DH-TRNG architecture itself
//!   ([`DhTrng`](dhtrng_core::DhTrng)), plus the SP 800-90C output
//!   stages (health tests, composable conditioning, the DRBG);
//! * [`noise`] — the stochastic substrate (jitter, metastability, PVT);
//! * [`sim`] — the event-driven gate-level simulator;
//! * [`fpga`] — device, packing, placement, timing and power models;
//! * [`baselines`] — the Table 6 comparison architectures;
//! * [`stattests`] — NIST SP 800-22 / SP 800-90B / AIS-31 batteries;
//! * [`stream`] — the sharded streaming engine and the
//!   session-oriented entropy source ([`api`]): one shared
//!   [`EntropySource`](dhtrng_stream::EntropySource) minting
//!   independent per-consumer
//!   [`Session`](dhtrng_stream::Session)s at any quality tier
//!   (raw / conditioned / drbg), all driven by one stage-graph
//!   executor over recycled chunk buffers (zero-allocation
//!   steady-state raw reads; `DESIGN.md` §7–8), wrapped here by the
//!   `rand`-compatible [`StreamRng`] and [`SessionRng`] adapters;
//! * [`serve`] — entropy as a service: the daemon front-end
//!   (TCP / unix socket, length-prefixed frames) that multiplexes
//!   many concurrent clients over one shared source, plus the load
//!   generator that drives thousands of simulated clients through
//!   the same connection state machine.
//!
//! **Library or service?** Link against [`api`] when the consumers
//! live in your process — sessions are cheap and draw from one shared
//! deployment. Run the [`serve`] daemon when consumers are separate
//! processes (or machines) and should share one hardware deployment
//! through a socket; the wire protocol and trade-offs are in
//! `README.md` § "Library vs service" and `DESIGN.md` §8.
//!
//! # Quickstart
//!
//! ```
//! use dh_trng::prelude::*;
//!
//! let mut trng = DhTrng::builder().seed(1).build();
//! let mut key = [0u8; 32];
//! trng.fill_bytes(&mut key);
//!
//! // Assess the stream the way the paper's Table 4 does.
//! let bits: BitBuffer = (0..100_000).map(|_| trng.next_bit()).collect();
//! let h = min_entropy_mcv(&bits);
//! assert!(h > 0.98, "h = {h}");
//! ```
//!
//! # Quality tiers
//!
//! A production deployment builds one shared source and opens a
//! session per consumer at one of three output tiers — raw source
//! bits, conditioned bits, or DRBG output (see `README.md` § "Which
//! tier do I want?"):
//!
//! ```
//! use dh_trng::prelude::*;
//!
//! let source = EntropySource::builder()
//!     .shards(2)
//!     .seed(1)
//!     .chunk_bytes(2048)
//!     .build()
//!     .expect("valid configuration");
//! let mut rng = SessionRng::new(source.session(Tier::Drbg));
//! let mut key = [0u8; 32];
//! rand::RngCore::fill_bytes(&mut rng, &mut key);
//! assert_eq!(rng.session().tier(), Tier::Drbg);
//! ```
//!
//! See `README.md` for the repository tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology and results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use dhtrng_baselines as baselines;
pub use dhtrng_core as core;
pub use dhtrng_fpga as fpga;
pub use dhtrng_noise as noise;
pub use dhtrng_serve as serve;
pub use dhtrng_sim as sim;
pub use dhtrng_stattests as stattests;
pub use dhtrng_stream as stream;

/// The session-oriented public API: one shared
/// [`EntropySource`](dhtrng_stream::EntropySource), many independent
/// [`Session`](dhtrng_stream::Session)s (see `dhtrng_stream::api`).
pub use dhtrng_stream::api;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use dhtrng_baselines::{Architecture, RoXorTrng};
    pub use dhtrng_core::conditioning::{
        BitSink, BlockConditioner, Conditioned, Conditioner, CrcWhitener, LfsrConditioner,
        VonNeumannConditioner, XorFold,
    };
    pub use dhtrng_core::drbg::{Drbg, DrbgConfig, HashDrbg};
    pub use dhtrng_core::kernel::{BitBlock, BlockSource, ConditionerStage, Stage};
    pub use dhtrng_core::telemetry::{
        MetricsHandle, NoopRecorder, Recorder, ShardSnapshot, Snapshot, StageEvent, TraceEvent,
        Tracer,
    };
    pub use dhtrng_core::{
        DhTrng, DhTrngArray, DhTrngBuilder, HealthMonitor, HealthStatus, HybridUnitGroup,
        KernelError, Trng,
    };
    pub use dhtrng_fpga::Device;
    pub use dhtrng_noise::{NoiseRng, PvtCorner};
    pub use dhtrng_serve::{Client, Service, ServiceConfig};
    pub use dhtrng_stattests::sp800_90b::{min_entropy_mcv, non_iid_battery};
    pub use dhtrng_stattests::BitBuffer;
    pub use dhtrng_stream::{
        AffinityPolicy, ConditionerSpec, EntropySource, EntropyStream, EntropyStreamBuilder, Error,
        HealthConfig, Session, SessionConfig, SourceBuilder, Tier,
    };

    pub use crate::{SessionRng, StreamRng};
}

/// `rand`-compatible adapter over the sharded streaming engine: plugs a
/// multi-instance DH-TRNG deployment into anything that consumes
/// [`rand::RngCore`] (distributions, shuffles, key generation, other
/// generators' seeds).
///
/// Byte order matches the single-instance
/// [`DhTrng`](dhtrng_core::DhTrng) `RngCore` impl: words are built from
/// the stream MSB-first.
///
/// This adapter serves the **raw tier** straight off the engine;
/// [`SessionRng`] serves any tier through a session behind the same
/// `RngCore` surface.
///
/// # Panics
///
/// The infallible [`rand::RngCore`] methods panic if the underlying
/// stream fails terminally (a shard retired; see
/// [`Error`](dhtrng_stream::Error)). Use
/// [`try_fill_bytes`](rand::RngCore::try_fill_bytes) — or inspect
/// [`stream`](Self::stream) — for a non-panicking path.
///
/// # Example
///
/// ```
/// use dh_trng::prelude::*;
/// use rand::Rng;
///
/// let mut rng = StreamRng::with_shards(4, 42);
/// let die: u8 = rng.gen_range(1..=6);
/// assert!((1..=6).contains(&die));
/// ```
#[derive(Debug)]
pub struct StreamRng {
    stream: dhtrng_stream::EntropyStream,
}

impl StreamRng {
    /// Wraps an already-configured stream.
    pub fn new(stream: dhtrng_stream::EntropyStream) -> Self {
        Self { stream }
    }

    /// A stream of `shards` parallel instances at the default
    /// configuration (Artix-7, nominal corner, 64 KiB chunks).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is outside `1..=64`.
    pub fn with_shards(shards: usize, seed: u64) -> Self {
        Self::new(
            dhtrng_stream::EntropyStream::builder()
                .shards(shards)
                .seed(seed)
                .build(),
        )
    }

    /// The engine behind the adapter (shard count, restart statistics,
    /// modeled throughput, placements).
    pub fn stream(&self) -> &dhtrng_stream::EntropyStream {
        &self.stream
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> dhtrng_stream::EntropyStream {
        self.stream
    }
}

impl rand::RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        let mut bytes = [0u8; 4];
        self.fill_bytes(&mut bytes);
        u32::from_be_bytes(bytes)
    }

    fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_be_bytes(bytes)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.stream
            .read(dest)
            .expect("entropy stream failed terminally");
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.stream.read(dest).map_err(rand::Error::new)
    }
}

/// `rand`-compatible adapter over one
/// [`Session`](dhtrng_stream::Session): any quality tier
/// ([`Tier`](dhtrng_stream::Tier)) of a shared deployment — `raw`
/// source bits, `conditioned` bits, or SP 800-90C-style `drbg` output.
///
/// Byte and word order match [`StreamRng`] (words built MSB-first from
/// the session's byte stream).
///
/// # Panics
///
/// As [`StreamRng`]: the infallible [`rand::RngCore`] methods panic if
/// the session's read fails (see [`Session::read`](dhtrng_stream::Session::read));
/// use [`try_fill_bytes`](rand::RngCore::try_fill_bytes) for a
/// non-panicking path.
///
/// # Example
///
/// ```
/// use dh_trng::prelude::*;
/// use rand::Rng;
///
/// let source = EntropySource::builder()
///     .shards(2)
///     .seed(7)
///     .chunk_bytes(2048)
///     .build()
///     .expect("valid configuration");
/// let mut rng = SessionRng::new(source.session(Tier::Conditioned));
/// let die: u8 = rng.gen_range(1..=6);
/// assert!((1..=6).contains(&die));
/// ```
#[derive(Debug)]
pub struct SessionRng {
    session: dhtrng_stream::Session,
}

impl SessionRng {
    /// Wraps a session.
    pub fn new(session: dhtrng_stream::Session) -> Self {
        Self { session }
    }

    /// The session behind the adapter (tier, bytes delivered, reseeds,
    /// the shared source).
    pub fn session(&self) -> &dhtrng_stream::Session {
        &self.session
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> dhtrng_stream::Session {
        self.session
    }
}

impl rand::RngCore for SessionRng {
    fn next_u32(&mut self) -> u32 {
        let mut bytes = [0u8; 4];
        self.fill_bytes(&mut bytes);
        u32::from_be_bytes(bytes)
    }

    fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_be_bytes(bytes)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.session
            .read(dest)
            .expect("entropy session read failed");
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.session.read(dest).map_err(rand::Error::new)
    }
}

/// The README's code blocks, compiled and run as doctests so the
/// quickstart can never drift from the real API (CI's doc job runs
/// `cargo test --doc --workspace`).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_wires_the_stack_together() {
        let mut trng = DhTrng::builder().seed(3).build();
        let bits: BitBuffer = (0..10_000).map(|_| trng.next_bit()).collect();
        assert_eq!(bits.len(), 10_000);
        assert!(min_entropy_mcv(&bits) > 0.9);
    }

    #[test]
    fn stream_rng_adapter_drives_the_rand_ecosystem() {
        use rand::{Rng, RngCore};
        let mut rng = StreamRng::new(
            EntropyStream::builder()
                .shards(2)
                .seed(11)
                .chunk_bytes(1024)
                .build(),
        );
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        assert!(key.iter().any(|&b| b != 0));
        let sample: u64 = rng.gen_range(0..1000);
        assert!(sample < 1000);
        assert!(rng.try_fill_bytes(&mut key).is_ok());
        assert_eq!(rng.stream().shards(), 2);
        assert_eq!(rng.stream().bytes_delivered(), 32 + 32 + 8);
    }

    #[test]
    fn stream_rng_words_match_raw_stream_bytes() {
        use rand::RngCore;
        let mut words = StreamRng::with_shards(2, 21);
        let mut raw = EntropyStream::builder().shards(2).seed(21).build();
        let mut bytes = [0u8; 12];
        raw.read(&mut bytes).unwrap();
        assert_eq!(
            words.next_u64(),
            u64::from_be_bytes(bytes[..8].try_into().unwrap())
        );
        assert_eq!(
            words.next_u32(),
            u32::from_be_bytes(bytes[8..].try_into().unwrap())
        );
    }

    fn source(shards: usize, seed: u64) -> EntropySource {
        EntropySource::builder()
            .shards(shards)
            .seed(seed)
            .build()
            .expect("valid configuration")
    }

    #[test]
    fn session_rng_serves_all_three_tiers() {
        use rand::{Rng, RngCore};
        for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
            let mut rng = SessionRng::new(source(2, 13).session(tier));
            assert_eq!(rng.session().tier(), tier);
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            assert!(key.iter().any(|&b| b != 0), "{tier:?}");
            let die: u8 = rng.gen_range(1..=6);
            assert!((1..=6).contains(&die));
        }
    }

    #[test]
    fn raw_session_rng_matches_stream_rng() {
        use rand::RngCore;
        let mut session = SessionRng::new(source(2, 21).session(Tier::Raw));
        let mut direct = StreamRng::with_shards(2, 21);
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        session.fill_bytes(&mut a);
        direct.fill_bytes(&mut b);
        assert_eq!(a, b, "a raw session reads the engine stream itself");
    }

    #[test]
    fn session_rng_words_and_unwrapping_continue_the_session_stream() {
        use rand::RngCore;
        for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
            let mut plain = source(2, 31).session(tier);
            let mut bytes = [0u8; 28];
            plain.read(&mut bytes).unwrap();

            let mut rng = SessionRng::new(source(2, 31).session(tier));
            assert_eq!(
                rng.next_u64(),
                u64::from_be_bytes(bytes[..8].try_into().unwrap()),
                "{tier:?}"
            );
            assert_eq!(
                rng.next_u32(),
                u32::from_be_bytes(bytes[8..12].try_into().unwrap()),
                "{tier:?}"
            );
            // Unwrapping hands back the session mid-stream, ledger intact.
            let mut session = rng.into_inner();
            assert_eq!(session.bytes_delivered(), 12, "{tier:?}");
            let mut rest = [0u8; 16];
            session.read(&mut rest).unwrap();
            assert_eq!(rest[..], bytes[12..], "{tier:?}");
        }
    }

    #[test]
    fn session_rng_surfaces_tier_errors_through_try_fill() {
        use rand::RngCore;
        let source = EntropySource::builder()
            .shards(1)
            .seed(3)
            .chunk_bytes(256)
            .health(HealthConfig {
                rct_cutoff: 2,
                apt_window: 64,
                apt_cutoff: 64,
            })
            .max_consecutive_restarts(2)
            .build()
            .expect("valid configuration");
        let mut rng = SessionRng::new(source.session(Tier::Drbg));
        let mut buf = [0u8; 16];
        assert!(rng.try_fill_bytes(&mut buf).is_err());
    }
}
