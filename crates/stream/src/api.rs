//! The session-oriented public API: one shared [`EntropySource`],
//! many independent [`Session`]s.
//!
//! The deployment (engine + conditioning stage) lives once, behind a
//! cheaply-cloneable [`EntropySource`] handle, and every consumer —
//! library user, the facade's `SessionRng`, or a `dhtrng-serve`
//! client — gets its own [`Session`] at a quality [`Tier`]:
//!
//! * **raw / conditioned sessions** draw from the shared stream under
//!   the source lock. Bytes are globally sequenced: what one session
//!   reads, no other session ever sees (exactly-once delivery across
//!   the whole source).
//! * **drbg sessions** are the cheap path the daemon hands out: each
//!   owns a private [`HashDrbg`] that expands seed material harvested
//!   from the shared conditioned stream. Between reseeds a drbg read
//!   touches only session-local state — no lock, no contention.
//! * **reseed harvests are arbitrated** (round-robin queue, bounded
//!   per-session credits — the internal `arbiter` module): a session cannot
//!   monopolise the scarce raw entropy, and a session over its share
//!   either yields a queue lap or, in
//!   [fail-fast mode](SessionConfig::fail_fast_backpressure), gets the
//!   retriable [`Error::Backpressure`].
//! * **graceful degradation**: when a shard retires terminally, raw
//!   and conditioned sessions surface the typed error (after draining
//!   what was already conditioned), but drbg sessions with
//!   [`stall_reseeds_on_failure`](SessionConfig::stall_reseeds_on_failure)
//!   keep serving from their DRBG state — reseeds stall (re-keying
//!   from the last harvested material so the output keeps moving), the
//!   stall is counted, and [`SourceStats::degraded`] reports the cause.
//!
//! A sole session is the single-consumer pipeline: a raw session reads
//! the merged engine stream itself, a conditioned session reads the
//! core [`Conditioned`](dhtrng_core::conditioning::Conditioned) adaptor's
//! output over that stream, and a drbg session reads the core
//! [`Drbg`](dhtrng_core::drbg::Drbg) adaptor's output over the
//! conditioned stream (the unit tests below pin the last two byte for
//! byte).
//!
//! # Example
//!
//! ```
//! use dhtrng_stream::{EntropySource, Tier};
//!
//! let source = EntropySource::builder()
//!     .shards(2)
//!     .seed(7)
//!     .chunk_bytes(2048)
//!     .build()
//!     .expect("valid configuration");
//! // Many sessions, one deployment.
//! let mut alice = source.session(Tier::Drbg);
//! let mut bob = source.session(Tier::Drbg);
//! let (mut a, mut b) = ([0u8; 32], [0u8; 32]);
//! alice.read(&mut a).expect("healthy");
//! bob.read(&mut b).expect("healthy");
//! assert_ne!(a, b, "independent DRBG streams");
//! assert_eq!(source.stats().live_sessions, 2);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dhtrng_core::conditioning::{Conditioner, CrcWhitener, VonNeumannConditioner, XorFold};
use dhtrng_core::drbg::{DrbgConfig, HashDrbg, BLOCK_BYTES};
use dhtrng_core::kernel::{BitBlock, ConditionerStage, Stage};
use dhtrng_core::telemetry::{MetricsHandle, Recorder, Snapshot, Telemetry};
use dhtrng_core::DhTrngConfig;

use crate::affinity::AffinityPolicy;
use crate::arbiter::{ReseedArbiter, Turn};
use crate::engine::{EntropyStream, EntropyStreamBuilder};
use crate::error::{ConfigError, Error};
use crate::shard::HealthConfig;
use crate::wake::EventCount;

/// Default bound on per-session reseed credits (see
/// [`SourceBuilder::reseed_credits`]).
pub const DEFAULT_RESEED_CREDITS: u32 = 4;

/// Quality tier of a pipeline output stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The merged health-gated source stream, full rate.
    Raw,
    /// Conditioner output (rate divided by the compression ratio).
    Conditioned,
    /// DRBG output keyed from the conditioned stream.
    Drbg,
}

/// Which conditioner the pipeline's conditioning stage runs.
///
/// A closed enum (rather than a user-supplied trait object) so the
/// builder stays `Clone` and the choice is recordable in reports; the
/// core [`Conditioned`](dhtrng_core::conditioning::Conditioned) adaptor
/// accepts arbitrary [`Conditioner`] implementations for custom stacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConditionerSpec {
    /// Von Neumann debiasing (expected 4:1 on an unbiased source).
    VonNeumann,
    /// XOR of `factor` raw bits per output bit.
    XorFold(
        /// The fold factor (raw bits per output bit, `>= 1`).
        u32,
    ),
    /// CRC-16 whitener emitting one bit per `ratio` raw bits.
    Crc {
        /// Raw bits per output bit (`>= 1`).
        ratio: u32,
    },
}

impl Default for ConditionerSpec {
    /// The pipeline default: 2:1 CRC conditioning.
    fn default() -> Self {
        Self::Crc { ratio: 2 }
    }
}

impl ConditionerSpec {
    /// Expected raw bits per conditioned bit for this choice, as
    /// declared by the machine itself (single source of truth).
    ///
    /// # Panics
    ///
    /// Panics on a zero fold factor or compression ratio.
    pub fn expected_ratio(&self) -> f64 {
        self.build().expected_ratio()
    }

    /// Checks the spec for a zero fold factor or compression ratio —
    /// the validation path for untrusted configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ConditionerRatio`] on a zero parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            Self::XorFold(0) | Self::Crc { ratio: 0 } => Err(ConfigError::ConditionerRatio),
            _ => Ok(()),
        }
    }

    /// Instantiates the chosen machine.
    ///
    /// # Panics
    ///
    /// Panics on a zero fold factor or compression ratio.
    pub(crate) fn build(&self) -> Box<dyn Conditioner + Send> {
        match *self {
            Self::VonNeumann => Box::new(VonNeumannConditioner::new()),
            Self::XorFold(factor) => Box::new(XorFold::new(factor)),
            Self::Crc { ratio } => Box::new(CrcWhitener::new(ratio)),
        }
    }
}

/// Configures and builds a shared [`EntropySource`].
///
/// Engine knobs mirror [`EntropyStreamBuilder`]; the conditioning and
/// DRBG stages add [`conditioner`](Self::conditioner) and
/// [`drbg_config`](Self::drbg_config); the service layer adds
/// [`reseed_credits`](Self::reseed_credits). Unlike
/// [`EntropyStreamBuilder::build`], [`build`](Self::build) validates
/// instead of panicking — source configuration is exactly what a
/// daemon parses from untrusted input.
#[derive(Debug, Clone, Default)]
pub struct SourceBuilder {
    stream: EntropyStreamBuilder,
    conditioner: ConditionerSpec,
    drbg: DrbgConfig,
    reseed_credits: u32,
}

impl SourceBuilder {
    /// Starts from the engine and stage defaults (4 shards, 64 KiB
    /// chunks, 2:1 CRC conditioning, 1 Mbit DRBG reseed interval,
    /// [`DEFAULT_RESEED_CREDITS`]).
    pub fn new() -> Self {
        Self {
            stream: EntropyStreamBuilder::default(),
            conditioner: ConditionerSpec::default(),
            drbg: DrbgConfig::default(),
            reseed_credits: 0, // 0 = use the default at build time
        }
    }

    /// Number of parallel DH-TRNG instances (1..=64).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.stream = self.stream.shards(shards);
        self
    }

    /// Master seed for the shard seed schedule.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.stream = self.stream.seed(seed);
        self
    }

    /// Explicit per-shard seed schedule (length must equal the shard
    /// count at build time).
    #[must_use]
    pub fn shard_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.stream = self.stream.shard_seeds(seeds);
        self
    }

    /// Base instance configuration for every shard.
    #[must_use]
    pub fn config(mut self, config: DhTrngConfig) -> Self {
        self.stream = self.stream.config(config);
        self
    }

    /// Bytes per produced chunk (the engine's merge granularity).
    #[must_use]
    pub fn chunk_bytes(mut self, bytes: usize) -> Self {
        self.stream = self.stream.chunk_bytes(bytes);
        self
    }

    /// Chunks buffered per shard before its worker blocks.
    #[must_use]
    pub fn queue_chunks(mut self, chunks: usize) -> Self {
        self.stream = self.stream.queue_chunks(chunks);
        self
    }

    /// Health-test cutoffs applied per shard.
    #[must_use]
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.stream = self.stream.health(health);
        self
    }

    /// Consecutive restarts a shard may burn on one chunk before it
    /// retires.
    #[must_use]
    pub fn max_consecutive_restarts(mut self, restarts: u32) -> Self {
        self.stream = self.stream.max_consecutive_restarts(restarts);
        self
    }

    /// Deterministic fault injection: `shard` retires after `chunks`
    /// healthy chunks (see
    /// [`EntropyStreamBuilder::inject_shard_failure`]).
    #[must_use]
    pub fn inject_shard_failure(mut self, shard: usize, chunks: u64) -> Self {
        self.stream = self.stream.inject_shard_failure(shard, chunks);
        self
    }

    /// How the engine's worker threads are placed onto CPU cores (see
    /// [`EntropyStreamBuilder::core_affinity`]); best-effort, and the
    /// conditioned stream is identical either way.
    #[must_use]
    pub fn core_affinity(mut self, policy: AffinityPolicy) -> Self {
        self.stream = self.stream.core_affinity(policy);
        self
    }

    /// Installs a stage-event recorder on the deployment (see
    /// [`EntropyStreamBuilder::recorder`]). The always-on counters
    /// behind [`EntropySource::metrics`] run either way; the default
    /// recorder is a no-op.
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.stream = self.stream.recorder(recorder);
        self
    }

    /// Conditioner between the raw stream and the conditioned/drbg
    /// consumers.
    #[must_use]
    pub fn conditioner(mut self, spec: ConditionerSpec) -> Self {
        self.conditioner = spec;
        self
    }

    /// Default DRBG policy for drbg sessions (overridable per session
    /// via [`SessionConfig::drbg`]).
    #[must_use]
    pub fn drbg_config(mut self, config: DrbgConfig) -> Self {
        self.drbg = config;
        self
    }

    /// Bound on per-session reseed credits: how many harvests a
    /// session may take beyond its round-robin share before it is
    /// demoted (or told [`Error::Backpressure`] in fail-fast mode).
    /// Zero selects [`DEFAULT_RESEED_CREDITS`].
    #[must_use]
    pub fn reseed_credits(mut self, credits: u32) -> Self {
        self.reseed_credits = credits;
        self
    }

    /// Validates the configuration and spawns the shared deployment.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a typed [`ConfigError`] — this
    /// is the non-panicking path for configuration parsed from
    /// untrusted input (converted into [`Error::InvalidConfig`] by the
    /// daemon via `From`).
    pub fn build(self) -> Result<EntropySource, ConfigError> {
        self.conditioner.validate()?;
        if self.drbg.seed_bytes == 0 {
            return Err(ConfigError::SeedBytes);
        }
        let raw = self.stream.try_build()?;
        let telemetry = raw.telemetry();
        let modeled_mbps = raw.throughput_mbps();
        let stage = ConditionerStage::new(self.conditioner.build());
        let credits = if self.reseed_credits == 0 {
            DEFAULT_RESEED_CREDITS
        } else {
            self.reseed_credits
        };
        Ok(EntropySource {
            inner: Arc::new(Inner {
                shared: Mutex::new(Shared {
                    raw,
                    stage,
                    seed_carry: VecDeque::new(),
                    degraded: None,
                    arbiter: ReseedArbiter::new(),
                    conditioned_bytes: 0,
                    reseeds_served: 0,
                }),
                turns: EventCount::new(),
                telemetry,
                next_session: AtomicU64::new(0),
                live_sessions: AtomicU64::new(0),
                sessions_opened: AtomicU64::new(0),
                drbg_sessions: AtomicU64::new(0),
                stalled_reseeds: AtomicU64::new(0),
                modeled_mbps,
                spec: self.conditioner,
                drbg_config: self.drbg,
                max_reseed_credits: credits,
            }),
        })
    }
}

/// The deployment state every session contends for, behind one lock.
struct Shared {
    raw: EntropyStream,
    stage: ConditionerStage<Box<dyn Conditioner + Send>>,
    /// Conditioned bytes drawn for seed harvests but not yet consumed
    /// (the tail of the last chunk a harvest processed). Keeping this
    /// carry *global* is what lets harvests walk the conditioned stream
    /// with no gaps, so a sole drbg session reads exactly the core
    /// `Drbg` adaptor's stream.
    seed_carry: VecDeque<u8>,
    /// Latched terminal failure; `Some` flips the source into degraded
    /// mode for every current and future session.
    degraded: Option<Error>,
    arbiter: ReseedArbiter,
    /// Conditioned bytes delivered (session reads + seed harvests).
    conditioned_bytes: u64,
    reseeds_served: u64,
}

impl Shared {
    /// Fills `out` with conditioned bytes: `carry` first, then whole
    /// chunks conditioned in place in the engine's pool buffers, the
    /// tail of the last chunk going back into `carry`.
    ///
    /// All-or-nothing: on a source error, bytes already copied into
    /// `out` are rolled back onto the front of `carry`, so the caller
    /// retrying with smaller reads still sees every healthy byte
    /// exactly once.
    fn draw_conditioned(&mut self, carry: &mut VecDeque<u8>, out: &mut [u8]) -> Result<(), Error> {
        let mut written = 0;
        while written < out.len() {
            while written < out.len() {
                let Some(byte) = carry.pop_front() else {
                    break;
                };
                out[written] = byte;
                written += 1;
            }
            if written == out.len() {
                break;
            }
            let Self { raw, stage, .. } = self;
            let space = out.len() - written;
            let dest = &mut out[written..];
            match raw.with_next_chunk(|chunk| {
                let mut block = BitBlock::full(chunk);
                stage.process(&mut block);
                let emitted = block.whole_bytes();
                let take = emitted.min(space);
                dest[..take].copy_from_slice(&chunk[..take]);
                carry.extend(&chunk[take..emitted]);
                take
            }) {
                Ok(take) => written += take,
                Err(error) => {
                    self.raw.telemetry().rollback(written);
                    for &byte in out[..written].iter().rev() {
                        carry.push_front(byte);
                    }
                    self.degraded = Some(error);
                    return Err(error);
                }
            }
        }
        self.conditioned_bytes += out.len() as u64;
        Ok(())
    }
}

/// The handle-side state: the lock, the reseed wake-up channel, and
/// the lock-free counters.
struct Inner {
    shared: Mutex<Shared>,
    /// Signalled whenever the reseed queue moves (a harvest completes,
    /// a session demotes or withdraws, the source degrades). The same
    /// eventcount-style wakeup token as the ring hand-off uses: waiters
    /// register under the source lock (lossless), then park outside it.
    turns: EventCount,
    /// The deployment's always-on stage counters (shared with the
    /// engine's executor and workers).
    telemetry: Arc<Telemetry>,
    next_session: AtomicU64,
    live_sessions: AtomicU64,
    sessions_opened: AtomicU64,
    drbg_sessions: AtomicU64,
    stalled_reseeds: AtomicU64,
    modeled_mbps: f64,
    spec: ConditionerSpec,
    drbg_config: DrbgConfig,
    max_reseed_credits: u32,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("entropy source lock poisoned")
    }
}

/// A shared handle to one sharded deployment (engine + conditioning
/// stage), minting independent per-consumer [`Session`]s.
///
/// Cloning is cheap (an `Arc` bump) and every clone mints sessions
/// over the *same* underlying stream — the multi-client daemon hands
/// one clone to every connection thread. See the
/// [module docs](self) for the delivery and arbitration guarantees.
#[derive(Clone)]
pub struct EntropySource {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for EntropySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntropySource")
            .field("conditioner", &self.inner.spec)
            .field("drbg_config", &self.inner.drbg_config)
            .field("max_reseed_credits", &self.inner.max_reseed_credits)
            .field(
                "live_sessions",
                &self.inner.live_sessions.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl EntropySource {
    /// Starts configuring a shared source.
    pub fn builder() -> SourceBuilder {
        SourceBuilder::new()
    }

    /// Mints a session at `tier` with no quota and the source-default
    /// policies.
    pub fn session(&self, tier: Tier) -> Session {
        self.session_with(SessionConfig::new(tier))
    }

    /// Mints a session with an explicit per-session configuration.
    ///
    /// # Panics
    ///
    /// Panics if a per-session DRBG override carries zero
    /// `seed_bytes` (a programmer error — daemon-facing quotas and
    /// tiers are validated at the protocol layer instead).
    pub fn session_with(&self, config: SessionConfig) -> Session {
        let drbg_config = config.drbg.unwrap_or(self.inner.drbg_config);
        assert!(
            drbg_config.seed_bytes > 0,
            "session DRBG seed_bytes must be positive"
        );
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        self.inner.live_sessions.fetch_add(1, Ordering::Relaxed);
        self.inner.sessions_opened.fetch_add(1, Ordering::Relaxed);
        if config.tier == Tier::Drbg {
            self.inner.drbg_sessions.fetch_add(1, Ordering::Relaxed);
        }
        let max_credits = config
            .reseed_credits
            .unwrap_or(self.inner.max_reseed_credits);
        let rounds = self.inner.lock().arbiter.rounds();
        Session {
            source: self.clone(),
            id,
            tier: config.tier,
            quota: config.quota,
            delivered: 0,
            carry: VecDeque::new(),
            drbg: None,
            drbg_config,
            block: [0u8; BLOCK_BYTES],
            cursor: BLOCK_BYTES,
            material: Vec::with_capacity(drbg_config.seed_bytes),
            harvested_bytes: 0,
            credits: max_credits,
            max_credits,
            last_rounds_seen: rounds,
            fail_fast: config.fail_fast_backpressure,
            stall_on_failure: config.stall_reseeds_on_failure,
            degraded: false,
            stalled_reseeds: 0,
        }
    }

    /// A consistent snapshot of the source's service counters.
    pub fn stats(&self) -> SourceStats {
        let shared = self.inner.lock();
        SourceStats {
            shards: shared.raw.shards(),
            chunk_bytes: shared.raw.chunk_bytes(),
            restarts: shared.raw.restarts(),
            degraded: shared.degraded,
            live_sessions: self.inner.live_sessions.load(Ordering::Relaxed),
            sessions_opened: self.inner.sessions_opened.load(Ordering::Relaxed),
            reseeds_served: shared.reseeds_served,
            stalled_reseeds: self.inner.stalled_reseeds.load(Ordering::Relaxed),
            conditioned_bytes: shared.conditioned_bytes,
            consumed_bits: shared.stage.consumed(),
            emitted_bits: shared.stage.emitted(),
            modeled_raw_mbps: self.inner.modeled_mbps,
            telemetry: self.inner.telemetry.snapshot(),
        }
    }

    /// A live handle over the deployment's always-on stage counters —
    /// per-shard and aggregated snapshots without taking the source
    /// lock.
    pub fn metrics(&self) -> MetricsHandle {
        MetricsHandle::new(Arc::clone(&self.inner.telemetry))
    }

    /// The latched terminal failure, if the source has degraded.
    pub fn degraded(&self) -> Option<Error> {
        self.inner.lock().degraded
    }

    /// The conditioner between the raw stream and every
    /// conditioned/drbg consumer.
    pub fn conditioner(&self) -> ConditionerSpec {
        self.inner.spec
    }

    /// The source-default DRBG policy for drbg sessions.
    pub fn drbg_config(&self) -> DrbgConfig {
        self.inner.drbg_config
    }

    /// The bound on per-session reseed credits.
    pub fn max_reseed_credits(&self) -> u32 {
        self.inner.max_reseed_credits
    }

    /// Modeled hardware throughput of the raw tier (sum over shards).
    pub fn modeled_raw_mbps(&self) -> f64 {
        self.inner.modeled_mbps
    }

    /// Modeled conditioned-tier rate: raw rate over the conditioner's
    /// expected compression ratio.
    pub fn conditioned_mbps(&self) -> f64 {
        self.inner.modeled_mbps / self.inner.spec.expected_ratio()
    }

    /// Modeled drbg-tier rate under the source-default policy:
    /// conditioned rate times the DRBG expansion factor.
    pub fn drbg_mbps(&self) -> f64 {
        self.conditioned_mbps() * self.inner.drbg_config.expansion_factor()
    }
}

/// Per-session policy for [`EntropySource::session_with`].
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Quality tier the session reads at.
    pub tier: Tier,
    /// Lifetime byte budget; `None` = unmetered. A read that would
    /// exceed the remainder fails whole with [`Error::QuotaExceeded`]
    /// and delivers nothing.
    pub quota: Option<u64>,
    /// Per-session DRBG policy override (`None` = the source default).
    pub drbg: Option<DrbgConfig>,
    /// Per-session reseed-credit bound override (`None` = the source
    /// default).
    pub reseed_credits: Option<u32>,
    /// When out of reseed credits with other sessions contending,
    /// return the retriable [`Error::Backpressure`] instead of
    /// yielding a queue lap and blocking (default `false`).
    pub fail_fast_backpressure: bool,
    /// On terminal source failure during a reseed, keep serving from
    /// DRBG state — re-key from the last harvested material, count a
    /// stalled reseed, mark the session degraded — instead of
    /// surfacing the error (default `true`). `false` is the fail-closed
    /// policy: a dead source surfaces as the read's error, never as a
    /// stalled reseed.
    pub stall_reseeds_on_failure: bool,
}

impl SessionConfig {
    /// The defaults for `tier`: no quota, source-default policies,
    /// blocking backpressure, graceful reseed stalling.
    pub fn new(tier: Tier) -> Self {
        Self {
            tier,
            quota: None,
            drbg: None,
            reseed_credits: None,
            fail_fast_backpressure: false,
            stall_reseeds_on_failure: true,
        }
    }

    /// Sets the lifetime byte quota.
    #[must_use]
    pub fn quota(mut self, bytes: u64) -> Self {
        self.quota = Some(bytes);
        self
    }

    /// Overrides the DRBG policy for this session.
    #[must_use]
    pub fn drbg(mut self, config: DrbgConfig) -> Self {
        self.drbg = Some(config);
        self
    }

    /// Overrides the reseed-credit bound for this session.
    #[must_use]
    pub fn reseed_credits(mut self, credits: u32) -> Self {
        self.reseed_credits = Some(credits);
        self
    }

    /// Selects fail-fast backpressure (see
    /// [`fail_fast_backpressure`](Self::fail_fast_backpressure)).
    #[must_use]
    pub fn fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast_backpressure = fail_fast;
        self
    }

    /// Selects whether reseeds stall (degraded mode) or error on
    /// terminal source failure (see
    /// [`stall_reseeds_on_failure`](Self::stall_reseeds_on_failure)).
    #[must_use]
    pub fn stall_reseeds(mut self, stall: bool) -> Self {
        self.stall_reseeds_on_failure = stall;
        self
    }
}

/// A consistent snapshot of an [`EntropySource`]'s service counters —
/// what the daemon's `Stat` response serialises.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SourceStats {
    /// Shards in the deployment.
    pub shards: usize,
    /// Engine merge granularity in bytes.
    pub chunk_bytes: usize,
    /// Health-triggered shard restarts performed so far.
    pub restarts: u64,
    /// The latched terminal failure, if the source has degraded.
    pub degraded: Option<Error>,
    /// Sessions currently alive.
    pub live_sessions: u64,
    /// Sessions ever minted.
    pub sessions_opened: u64,
    /// Reseed harvests served through the arbiter.
    pub reseeds_served: u64,
    /// Reseeds that stalled (re-keyed from stale material) because the
    /// source had degraded.
    pub stalled_reseeds: u64,
    /// Conditioned bytes delivered (session reads + seed harvests).
    pub conditioned_bytes: u64,
    /// Raw bits fed to the conditioner.
    pub consumed_bits: u64,
    /// Conditioned bits emitted.
    pub emitted_bits: u64,
    /// Modeled hardware throughput of the raw tier.
    pub modeled_raw_mbps: f64,
    /// Aggregated stage-counter snapshot from the deployment's
    /// always-on telemetry (see [`EntropySource::metrics`]).
    pub telemetry: Snapshot,
}

/// One consumer's handle onto a shared [`EntropySource`].
///
/// Sessions are `Send` (hand one to each connection thread) but
/// deliberately not `Clone`: the per-session state — carry buffer,
/// DRBG, quota, reseed credits — is what makes delivery exactly-once
/// *per session*.
pub struct Session {
    source: EntropySource,
    id: u64,
    tier: Tier,
    quota: Option<u64>,
    delivered: u64,
    /// Conditioned-tier carry: chunk tails and rolled-back bytes, per
    /// session (the rollback contract, per consumer).
    carry: VecDeque<u8>,
    drbg: Option<HashDrbg>,
    drbg_config: DrbgConfig,
    block: [u8; BLOCK_BYTES],
    /// Byte cursor into `block`; `BLOCK_BYTES` means exhausted.
    cursor: usize,
    /// Persistent seed-material buffer, reused across reseeds.
    material: Vec<u8>,
    harvested_bytes: u64,
    credits: u32,
    max_credits: u32,
    /// Arbiter round count at this session's last harvest: rounds
    /// advanced by others since then earn credits back.
    last_rounds_seen: u64,
    fail_fast: bool,
    stall_on_failure: bool,
    degraded: bool,
    stalled_reseeds: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("tier", &self.tier)
            .field("delivered", &self.delivered)
            .field("quota", &self.quota)
            .field("degraded", &self.degraded)
            .field("stalled_reseeds", &self.stalled_reseeds)
            .finish_non_exhaustive()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.source
            .inner
            .live_sessions
            .fetch_sub(1, Ordering::Relaxed);
        if self.tier == Tier::Drbg {
            self.source
                .inner
                .drbg_sessions
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Session {
    /// Fills `out` from this session's tier.
    ///
    /// # Errors
    ///
    /// * [`Error::QuotaExceeded`] — the request exceeds the remaining
    ///   quota; nothing is delivered and the session stays usable.
    /// * [`Error::Backpressure`] (fail-fast sessions only) — retriable;
    ///   the reseed queue was contended and this session is out of
    ///   credits.
    /// * Terminal source errors ([`Error::ShardFailed`] /
    ///   [`Error::ShardDisconnected`]) — surfaced by raw and
    ///   conditioned sessions (conditioned ones first drain and roll
    ///   back per the exactly-once contract), and by drbg sessions
    ///   only before instantiation or with reseed stalling disabled; a
    ///   stalling drbg session keeps serving in degraded mode instead
    ///   (check [`is_degraded`](Self::is_degraded)).
    pub fn read(&mut self, out: &mut [u8]) -> Result<(), Error> {
        if let Some(quota) = self.quota {
            let remaining = quota - self.delivered;
            if out.len() as u64 > remaining {
                return Err(Error::QuotaExceeded {
                    requested: out.len() as u64,
                    remaining,
                });
            }
        }
        match self.tier {
            Tier::Raw => self.read_raw(out),
            Tier::Conditioned => self.read_conditioned(out),
            Tier::Drbg => self.read_drbg(out),
        }?;
        self.delivered += out.len() as u64;
        self.source.inner.telemetry.session_bytes(out.len());
        Ok(())
    }

    /// Forces any lazy setup now: a drbg session harvests its
    /// instantiate material immediately instead of on first read.
    ///
    /// The daemon calls this at `Hello` time so a shard retirement
    /// *after* session setup can never strand a client without DRBG
    /// state — the degraded path always has material to re-key from.
    ///
    /// # Errors
    ///
    /// The harvest's error, as [`read`](Self::read).
    pub fn prime(&mut self) -> Result<(), Error> {
        if self.tier == Tier::Drbg && self.drbg.is_none() {
            self.harvest()?;
            self.drbg = Some(HashDrbg::instantiate(&self.material, self.drbg_config));
        }
        Ok(())
    }

    fn read_raw(&mut self, out: &mut [u8]) -> Result<(), Error> {
        let inner = Arc::clone(&self.source.inner);
        let mut shared = inner.lock();
        match shared.raw.read(out) {
            Ok(()) => Ok(()),
            Err(error) => {
                shared.degraded = Some(error);
                Err(error)
            }
        }
    }

    fn read_conditioned(&mut self, out: &mut [u8]) -> Result<(), Error> {
        let inner = Arc::clone(&self.source.inner);
        let mut shared = inner.lock();
        shared.draw_conditioned(&mut self.carry, out)
    }

    fn read_drbg(&mut self, out: &mut [u8]) -> Result<(), Error> {
        let mut written = 0;
        while written < out.len() {
            if self.cursor == BLOCK_BYTES {
                if let Err(error) = self.refill_block() {
                    // Rewind the current block by what this call copied
                    // from it (refills fail before `generate`, so the
                    // block is intact).
                    let rewind = written.min(BLOCK_BYTES);
                    self.cursor -= rewind;
                    return Err(error);
                }
            }
            let take = (out.len() - written).min(BLOCK_BYTES - self.cursor);
            out[written..written + take]
                .copy_from_slice(&self.block[self.cursor..self.cursor + take]);
            self.cursor += take;
            written += take;
        }
        Ok(())
    }

    /// Produces the next DRBG output block, harvesting (or stalling)
    /// a reseed first when the policy requires it.
    fn refill_block(&mut self) -> Result<(), Error> {
        if self.drbg.is_none() {
            // Instantiation cannot degrade gracefully: there is no
            // state to keep serving from yet.
            self.harvest()?;
            self.drbg = Some(HashDrbg::instantiate(&self.material, self.drbg_config));
        }
        let needs_reseed = self
            .drbg
            .as_ref()
            .expect("instantiated above")
            .needs_reseed();
        if needs_reseed {
            match self.harvest() {
                Ok(()) => {
                    let drbg = self.drbg.as_mut().expect("instantiated above");
                    drbg.reseed(&self.material);
                }
                Err(error) if !error.is_retriable() && self.stall_on_failure => {
                    // Degraded mode: the source is gone, but the session
                    // keeps its deterministic state. Re-key from the
                    // *last* harvested material so output keeps moving;
                    // count the stall so `Stat` can report it.
                    self.degraded = true;
                    self.stalled_reseeds += 1;
                    self.source
                        .inner
                        .stalled_reseeds
                        .fetch_add(1, Ordering::Relaxed);
                    self.source.inner.telemetry.reseed_stalled(self.id);
                    let drbg = self.drbg.as_mut().expect("instantiated above");
                    drbg.reseed(&self.material);
                }
                Err(error) => return Err(error),
            }
        }
        let drbg = self.drbg.as_mut().expect("instantiated above");
        drbg.generate(&mut self.block)
            .expect("reseed just satisfied the interval");
        self.cursor = 0;
        Ok(())
    }

    /// Credits this session would hold right now: stored credits plus
    /// one earned per round others advanced since its last harvest,
    /// capped at the bound.
    fn effective_credits(&self, rounds_now: u64) -> u32 {
        let earned = rounds_now.saturating_sub(self.last_rounds_seen);
        let earned = earned.min(u64::from(self.max_credits)) as u32;
        self.credits.saturating_add(earned).min(self.max_credits)
    }

    /// Draws `drbg_config.seed_bytes` of conditioned seed material
    /// into `self.material`, through the round-robin reseed arbiter.
    fn harvest(&mut self) -> Result<(), Error> {
        self.material.resize(self.drbg_config.seed_bytes, 0);
        let inner = Arc::clone(&self.source.inner);
        let mut shared = inner.lock();
        if let Some(error) = shared.degraded {
            return Err(error);
        }
        if self.fail_fast
            && self.effective_credits(shared.arbiter.rounds()) == 0
            && (shared.arbiter.contenders() > 0 || inner.drbg_sessions.load(Ordering::Relaxed) > 1)
        {
            return Err(Error::Backpressure);
        }
        shared.arbiter.enqueue(self.id);
        let mut demoted = false;
        loop {
            if let Some(error) = shared.degraded {
                shared.arbiter.remove(self.id);
                inner.turns.notify_all();
                return Err(error);
            }
            let credits = self.effective_credits(shared.arbiter.rounds());
            match shared.arbiter.turn(self.id, credits, demoted) {
                Turn::Serve => break,
                Turn::Demote => {
                    shared.arbiter.demote(self.id);
                    demoted = true;
                    inner.turns.notify_all();
                }
                Turn::Wait => {}
            }
            // Register under the lock (a notify cannot slip between the
            // turn check and the registration), then sleep outside it.
            let epoch = inner.turns.prepare();
            drop(shared);
            inner.turns.wait(epoch);
            shared = inner.lock();
        }
        // Our turn: draw through the shared seed carry so harvests walk
        // the conditioned stream without gaps.
        let mut seed_carry = std::mem::take(&mut shared.seed_carry);
        let result = shared.draw_conditioned(&mut seed_carry, &mut self.material);
        shared.seed_carry = seed_carry;
        match result {
            Ok(()) => {
                let credits = self.effective_credits(shared.arbiter.rounds());
                self.credits = credits.saturating_sub(1);
                shared.arbiter.served(self.id);
                self.last_rounds_seen = shared.arbiter.rounds();
                shared.reseeds_served += 1;
                inner.telemetry.reseed_granted(self.id);
                self.harvested_bytes += self.material.len() as u64;
                inner.turns.notify_all();
                Ok(())
            }
            Err(error) => {
                // `draw_conditioned` latched `shared.degraded`; release
                // the queue so every waiter observes it.
                shared.arbiter.remove(self.id);
                inner.turns.notify_all();
                Err(error)
            }
        }
    }

    /// The source this session draws from.
    pub fn source(&self) -> &EntropySource {
        &self.source
    }

    /// The source-unique session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tier this session reads at.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Bytes delivered to this session so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.delivered
    }

    /// The lifetime byte quota, if any.
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// Bytes the quota still allows (`None` = unmetered).
    pub fn quota_remaining(&self) -> Option<u64> {
        self.quota.map(|q| q - self.delivered)
    }

    /// The DRBG policy this session expands under.
    pub fn drbg_config(&self) -> &DrbgConfig {
        &self.drbg_config
    }

    /// DRBG reseeds performed (fresh and stalled; the lazy
    /// instantiation not counted).
    pub fn reseeds(&self) -> u64 {
        self.drbg.as_ref().map_or(0, HashDrbg::reseeds)
    }

    /// Reseeds that stalled (re-keyed from stale material) because the
    /// source had degraded.
    pub fn stalled_reseeds(&self) -> u64 {
        self.stalled_reseeds
    }

    /// Whether this session has entered degraded mode (serving from
    /// DRBG state over a dead source).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Conditioned bytes this session has harvested as seed material.
    pub fn harvested_bytes(&self) -> u64 {
        self.harvested_bytes
    }

    /// Reseed credits currently held (before queue-earned top-ups).
    pub fn reseed_credits(&self) -> u32 {
        self.credits
    }

    /// Direct access to the conditioned-tier carry, for tests that
    /// stage rollback scenarios.
    #[cfg(test)]
    pub(crate) fn carry_mut(&mut self) -> &mut VecDeque<u8> {
        &mut self.carry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_core::conditioning::Conditioned;
    use dhtrng_core::drbg::Drbg;
    use dhtrng_core::{DhTrng, Trng};

    fn builder(seed: u64) -> SourceBuilder {
        EntropySource::builder()
            .shards(2)
            .seed(seed)
            .chunk_bytes(1024)
    }

    fn source(seed: u64) -> EntropySource {
        builder(seed).build().expect("valid configuration")
    }

    /// Recorded bytes replayed MSB first: a merged raw stream as a core
    /// [`Trng`], so the core adaptors can run over it.
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

    /// Cutoffs no chunk can pass: RCT cutoff 2 trips on any repeated
    /// bit.
    fn impossible_health() -> HealthConfig {
        HealthConfig {
            rct_cutoff: 2,
            apt_window: 64,
            apt_cutoff: 64,
        }
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        let err = EntropySource::builder().shards(0).build().unwrap_err();
        assert_eq!(err, ConfigError::Shards { got: 0 });
        let err = EntropySource::builder()
            .conditioner(ConditionerSpec::XorFold(0))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ConditionerRatio);
        let err = EntropySource::builder()
            .drbg_config(DrbgConfig {
                seed_bytes: 0,
                ..DrbgConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::SeedBytes);
        let err = EntropySource::builder()
            .health(HealthConfig {
                rct_cutoff: 1,
                ..HealthConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::RctCutoff { got: 1 });
    }

    #[test]
    fn sole_conditioned_session_matches_the_core_adaptor() {
        // One conditioned session over a shared source reads exactly
        // what the core `Conditioned` adaptor produces over the same
        // merged raw bytes: one conditioning implementation, two mounts.
        let mut session = source(5).session(Tier::Conditioned);
        let mut got = vec![0u8; 2048];
        session.read(&mut got).expect("healthy");

        let mut raw = EntropyStream::builder()
            .shards(2)
            .seed(5)
            .chunk_bytes(1024)
            .build();
        let mut raw_bytes = vec![0u8; 8192];
        raw.read(&mut raw_bytes).expect("healthy");
        let mut reference = Conditioned::new(
            Replay {
                bytes: raw_bytes,
                bit: 0,
            },
            CrcWhitener::new(2),
        );
        let mut want = vec![0u8; 2048];
        reference.fill_bytes(&mut want);
        assert_eq!(got, want);
        assert_eq!(session.bytes_delivered(), 2048);
        let stats = session.source().stats();
        assert_eq!(stats.consumed_bits, 2 * stats.emitted_bits);
    }

    #[test]
    fn core_and_stream_drbg_share_one_state_machine() {
        // A sole drbg session over a 1-shard source and a core Drbg over
        // the equivalent Conditioned<DhTrng> walk the same seed
        // material, hence the same output stream.
        let config = DrbgConfig {
            reseed_interval_bits: 1024,
            seed_bytes: 8,
            prediction_resistance: false,
        };
        let mut session = EntropySource::builder()
            .shards(1)
            .shard_seeds(vec![42])
            .chunk_bytes(1024)
            .conditioner(ConditionerSpec::Crc { ratio: 2 })
            .drbg_config(config)
            .build()
            .expect("valid configuration")
            .session(Tier::Drbg);
        let mut session_bytes = vec![0u8; 512];
        session.read(&mut session_bytes).expect("healthy");

        let source = Conditioned::new(DhTrng::builder().seed(42).build(), CrcWhitener::new(2));
        let mut adaptor = Drbg::new(source, config);
        let mut adaptor_bytes = vec![0u8; 512];
        Trng::fill_bytes(&mut adaptor, &mut adaptor_bytes);
        assert_eq!(session_bytes, adaptor_bytes);
    }

    #[test]
    fn drbg_tier_is_deterministic_and_reseeds_on_interval() {
        let config = DrbgConfig {
            reseed_interval_bits: 2048,
            seed_bytes: 16,
            prediction_resistance: false,
        };
        let read = |seed: u64| {
            let mut session = builder(seed)
                .drbg_config(config)
                .build()
                .expect("valid configuration")
                .session(Tier::Drbg);
            let mut buf = vec![0u8; 2048];
            session.read(&mut buf).expect("healthy");
            (buf, session.reseeds())
        };
        let (buf_a, reseeds) = read(7);
        // 16384 bits over 2048-bit intervals: 8 intervals, 7 reseeds.
        assert_eq!(reseeds, 7);
        let (buf_b, _) = read(7);
        assert_eq!(buf_a, buf_b, "same schedule, same DRBG stream");
        let (buf_c, _) = read(8);
        assert_ne!(buf_a, buf_c, "different master seed, different stream");
    }

    #[test]
    fn sessions_are_balanced_at_every_tier() {
        for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
            let mut session = source(3).session(tier);
            assert_eq!(session.tier(), tier);
            let mut buf = vec![0u8; 1 << 16];
            session.read(&mut buf).expect("healthy");
            let ones: u64 = buf.iter().map(|b| u64::from(b.count_ones())).sum();
            let frac = ones as f64 / (buf.len() as f64 * 8.0);
            assert!((frac - 0.5).abs() < 0.01, "{tier:?}: ones fraction {frac}");
        }
    }

    #[test]
    fn modeled_throughput_ladder_matches_the_policy_math() {
        let src = builder(1)
            .conditioner(ConditionerSpec::XorFold(4))
            .build()
            .expect("valid configuration");
        assert!(
            (src.conditioned_mbps() - src.modeled_raw_mbps() / 4.0).abs() < 1e-9,
            "conditioned rate = raw / ratio"
        );
        let expected = src.conditioned_mbps() * src.drbg_config().expansion_factor();
        assert!((src.drbg_mbps() - expected).abs() < 1e-6);
    }

    #[test]
    fn shard_failure_surfaces_through_every_tier() {
        for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
            let mut session = EntropySource::builder()
                .shards(2)
                .seed(1)
                .chunk_bytes(256)
                .health(impossible_health())
                .max_consecutive_restarts(2)
                .build()
                .expect("valid configuration")
                .session(tier);
            let err = session.read(&mut [0u8; 64]).unwrap_err();
            assert!(
                matches!(err, Error::ShardFailed { shard: 0, .. }),
                "{tier:?}: {err}"
            );
        }
    }

    #[test]
    fn injected_failure_surfaces_through_every_tier() {
        for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
            // Fail closed: the drbg session must surface the dead
            // source instead of stalling its reseeds.
            let mut session = EntropySource::builder()
                .shards(2)
                .seed(1)
                .chunk_bytes(256)
                .inject_shard_failure(0, 2)
                .build()
                .expect("valid configuration")
                .session_with(SessionConfig::new(tier).stall_reseeds(false));
            let mut sink = [0u8; 64];
            let err = loop {
                if let Err(e) = session.read(&mut sink) {
                    break e;
                }
            };
            assert_eq!(
                err,
                Error::ShardFailed {
                    shard: 0,
                    consecutive_restarts: 0
                },
                "{tier:?}"
            );
        }
    }

    #[test]
    fn conditioned_read_rolls_back_on_error() {
        // A failed read must consume nothing: buffered healthy bytes
        // stay queued and are still drainable exactly once by smaller
        // retries.
        let mut session = EntropySource::builder()
            .shards(1)
            .seed(1)
            .chunk_bytes(256)
            .health(impossible_health())
            .max_consecutive_restarts(1)
            .build()
            .expect("valid configuration")
            .session(Tier::Conditioned);
        // Simulate healthy bytes buffered before the source died.
        session.carry_mut().extend([0xAA, 0xBB, 0xCC]);
        let mut big = [0u8; 16];
        assert!(session.read(&mut big).is_err());
        assert_eq!(
            session.carry_mut().len(),
            3,
            "rolled back, nothing consumed"
        );
        assert_eq!(session.bytes_delivered(), 0);
        // Smaller reads drain the healthy bytes exactly once...
        let mut small = [0u8; 3];
        session.read(&mut small).expect("served from the buffer");
        assert_eq!(small, [0xAA, 0xBB, 0xCC]);
        assert_eq!(session.bytes_delivered(), 3);
        // ...after which the terminal error surfaces for good.
        assert!(session.read(&mut small).is_err());
        assert_eq!(session.bytes_delivered(), 3);
    }

    #[test]
    fn drbg_read_rewinds_current_block_on_error() {
        // Mirror of the conditioned rollback contract at DRBG block
        // granularity: a failed oversized read rewinds the current
        // block, so block-sized retries see its bytes exactly once.
        // seed_bytes = one full chunk's conditioned output: the
        // instantiate harvest drains chunk 0 exactly, and the injected
        // retirement makes the first reseed harvest hit a dead source.
        let mut session = EntropySource::builder()
            .shards(1)
            .seed(1)
            .chunk_bytes(256)
            .inject_shard_failure(0, 1)
            .drbg_config(DrbgConfig {
                reseed_interval_bits: 512, // one block per reseed
                seed_bytes: 128,
                prediction_resistance: false,
            })
            .build()
            .expect("valid configuration")
            .session_with(SessionConfig::new(Tier::Drbg).stall_reseeds(false));
        // Oversized read: instantiation and the first block succeed and
        // serve 64 bytes, then the reseed harvest hits the dead source.
        let mut out = [0u8; 100];
        assert!(session.read(&mut out).is_err());
        assert_eq!(
            session.bytes_delivered(),
            0,
            "block rewound, nothing consumed"
        );
        // A block-sized retry drains those bytes exactly once...
        let mut small = [0u8; 64];
        session
            .read(&mut small)
            .expect("served from the rewound block");
        assert_eq!(small[..], out[..64]);
        assert_eq!(session.bytes_delivered(), 64);
        // ...then the terminal error surfaces for good.
        assert!(session.read(&mut [0u8; 1]).is_err());
        assert_eq!(session.bytes_delivered(), 64);
    }

    #[test]
    fn two_conditioned_sessions_split_the_stream_without_overlap() {
        // Chunk-aligned alternating reads from two sessions must
        // partition the reference single-consumer stream exactly.
        let src = source(11);
        let per_chunk = 1024 / 2; // 2:1 CRC over 1024-byte chunks
        let mut a = src.session(Tier::Conditioned);
        let mut b = src.session(Tier::Conditioned);
        let mut merged = Vec::new();
        let mut buf = vec![0u8; per_chunk];
        for i in 0..8 {
            let session = if i % 2 == 0 { &mut a } else { &mut b };
            session.read(&mut buf).expect("healthy");
            merged.extend_from_slice(&buf);
        }

        let mut reference = source(11).session(Tier::Conditioned);
        let mut want = vec![0u8; merged.len()];
        reference.read(&mut want).expect("healthy");
        assert_eq!(merged, want, "alternating sessions partition the stream");
    }

    #[test]
    fn quota_rejects_whole_requests_and_session_stays_usable() {
        let src = source(3);
        let mut session = src.session_with(SessionConfig::new(Tier::Drbg).quota(100));
        let mut buf = [0u8; 64];
        session.read(&mut buf).expect("within quota");
        let err = session.read(&mut buf).unwrap_err();
        assert_eq!(
            err,
            Error::QuotaExceeded {
                requested: 64,
                remaining: 36
            }
        );
        assert!(!err.is_retriable());
        assert_eq!(
            session.bytes_delivered(),
            64,
            "failed read delivered nothing"
        );
        let mut rest = [0u8; 36];
        session
            .read(&mut rest)
            .expect("the remainder is deliverable");
        assert_eq!(session.quota_remaining(), Some(0));
    }

    #[test]
    fn fail_fast_session_sees_backpressure_then_recovers() {
        let src = source(9);
        // A competing drbg session makes the source contended.
        let other = src.session(Tier::Drbg);
        let mut starved = src.session_with(
            SessionConfig::new(Tier::Drbg)
                .reseed_credits(0)
                .fail_fast(true),
        );
        // 0 credits + a live competitor: the instantiate harvest is
        // refused with the retriable backpressure error.
        let err = starved.prime().unwrap_err();
        assert_eq!(err, Error::Backpressure);
        assert!(err.is_retriable());
        // The competitor leaves; the retry (the whole point of a
        // retriable error) succeeds.
        drop(other);
        starved.prime().expect("no contention left");
        let mut buf = [0u8; 32];
        starved.read(&mut buf).expect("instantiated");
    }

    #[test]
    fn drbg_sessions_degrade_instead_of_dying_on_shard_retirement() {
        let src = EntropySource::builder()
            .shards(2)
            .seed(13)
            .chunk_bytes(256)
            .inject_shard_failure(0, 2)
            .drbg_config(DrbgConfig {
                reseed_interval_bits: 512, // reseed every block
                seed_bytes: 16,
                prediction_resistance: false,
            })
            .build()
            .expect("valid configuration");
        let mut session = src.session(Tier::Drbg);
        session.prime().expect("source healthy at setup");
        // Read far past the injected retirement: every reseed after the
        // failure stalls, but the session never errors.
        let mut buf = [0u8; 64];
        let mut outputs = std::collections::HashSet::new();
        for _ in 0..64 {
            session.read(&mut buf).expect("degraded, not dead");
            assert!(outputs.insert(buf), "degraded output must keep moving");
        }
        assert!(session.is_degraded());
        assert!(session.stalled_reseeds() > 0);
        let stats = src.stats();
        assert!(matches!(
            stats.degraded,
            Some(Error::ShardFailed { shard: 0, .. })
        ));
        assert_eq!(stats.stalled_reseeds, session.stalled_reseeds());
        // A conditioned session on the same source is not so lucky:
        // terminal error once its carry is dry.
        let mut cond = src.session(Tier::Conditioned);
        let err = cond.read(&mut [0u8; 16]).unwrap_err();
        assert!(matches!(err, Error::ShardFailed { shard: 0, .. }));
    }

    #[test]
    fn stats_count_sessions_and_harvests() {
        let src = source(21);
        assert_eq!(src.stats().live_sessions, 0);
        let mut a = src.session(Tier::Drbg);
        let b = src.session(Tier::Conditioned);
        assert_eq!(src.stats().live_sessions, 2);
        assert_eq!(src.stats().sessions_opened, 2);
        a.prime().expect("healthy");
        let stats = src.stats();
        assert_eq!(stats.reseeds_served, 1);
        assert_eq!(stats.conditioned_bytes, src.drbg_config().seed_bytes as u64);
        drop(a);
        drop(b);
        assert_eq!(src.stats().live_sessions, 0);
        assert_eq!(src.stats().sessions_opened, 2);
    }
}
