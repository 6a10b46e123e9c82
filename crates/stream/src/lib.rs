//! Sharded streaming engine for the DH-TRNG reproduction.
//!
//! The paper deploys DH-TRNG by replicating its 8-slice core: each
//! instance contributes its full 620/670 Mbps, and aggregate throughput
//! scales linearly because instances share nothing but the fabric. This
//! crate is the software mirror of that deployment, built for serving
//! entropy at production scale:
//!
//! * **N shards** — independently-seeded [`DhTrng`](dhtrng_core::DhTrng)
//!   instances, each assigned its own placement region on the modeled
//!   device, each generating through the batched
//!   [`Trng`](dhtrng_core::Trng) fast path on its own worker thread;
//! * **deterministic merge, zero-allocation steady state** — shards
//!   produce fixed-size chunks into bounded lock-free SPSC [`ring`]s
//!   (chunked buffering with backpressure), every chunk in a buffer
//!   recycled through a per-shard pool (drained buffers return to
//!   their worker over a paired return ring, so the raw-tier read path
//!   never touches the heap — or a lock — after build); the consumer
//!   drains chunks round-robin in shard order, so the merged stream is
//!   a pure function of the seed schedule, never of thread timing;
//!   opt-in [`AffinityPolicy`] pins workers to cores on multi-core
//!   Linux hosts;
//! * **graceful degradation** — every shard runs the SP 800-90B
//!   continuous health tests over its output; a failing chunk is
//!   discarded and the shard restarts (the paper's §4.2 power-cycle)
//!   without disturbing the other shards, and a shard that cannot
//!   recover retires with a typed [`Error`] that surfaces
//!   deterministically at its round-robin slot (see
//!   [`EntropyStream::read`]).
//!
//! On top of the merged raw stream sits the session-oriented [`api`]:
//! one shared [`EntropySource`] (engine + in-place conditioning stage,
//! the SP 800-90C source → health → conditioner chain) minting
//! independent per-consumer [`Session`]s at a quality [`Tier`] — the
//! surface the `dhtrng-serve` daemon multiplexes thousands of clients
//! over, with round-robin reseed arbitration, per-session quotas, and
//! graceful degradation on shard retirement. The conditioning stage
//! transforms each pooled chunk **in place** (a
//! [`Stage`](dhtrng_core::kernel::Stage) over borrowed
//! [`BitBlock`](dhtrng_core::kernel::BitBlock)s, via
//! [`EntropyStream::with_next_chunk`]) and each session's DRBG pumps
//! blocks out of borrowed state — no layer re-buffers the one below it
//! (`DESIGN.md` §7–8). The `dh_trng` facade wraps [`EntropyStream`] and
//! [`Session`] in `rand`-compatible adapters (`StreamRng` /
//! `SessionRng`) for the `rand` ecosystem.
//!
//! # Example
//!
//! ```
//! use dhtrng_stream::EntropyStream;
//!
//! let mut stream = EntropyStream::builder().shards(4).seed(1).chunk_bytes(2048).build();
//! let mut key = [0u8; 64];
//! stream.read(&mut key).expect("shards healthy");
//! assert!(key.iter().any(|&b| b != 0));
//! assert!(stream.throughput_mbps() > 2000.0); // 4 x ~620 Mbps modeled
//! ```
//!
//! The same deployment behind the full source → health → conditioner →
//! DRBG chain, as one session at the `drbg` tier:
//!
//! ```
//! use dhtrng_stream::{EntropySource, Tier};
//!
//! let source = EntropySource::builder()
//!     .shards(2)
//!     .seed(1)
//!     .chunk_bytes(2048)
//!     .build()
//!     .expect("valid configuration");
//! let mut session = source.session(Tier::Drbg);
//! let mut key = [0u8; 64];
//! session.read(&mut key).expect("shards healthy");
//! assert_eq!(session.tier(), Tier::Drbg);
//! ```

#![deny(missing_docs)]
// Unsafe is denied crate-wide and allowed back in exactly two leaf
// modules, each with per-site SAFETY comments (mirroring the AVX2
// dispatch precedent in `dhtrng-core`): the SPSC ring's slot cells
// (`ring`) and the Linux `sched_setaffinity` shim (`affinity`).
#![deny(unsafe_code)]

pub mod affinity;
pub mod api;
mod arbiter;
pub mod engine;
pub mod error;
mod exec;
pub mod ring;
pub mod shard;
mod wake;

pub use affinity::AffinityPolicy;
pub use api::{
    ConditionerSpec, EntropySource, Session, SessionConfig, SourceBuilder, SourceStats, Tier,
    DEFAULT_RESEED_CREDITS,
};
pub use engine::{EntropyStream, EntropyStreamBuilder};
pub use error::{ConfigError, Error};
pub use shard::{HealthConfig, HealthConfigBuilder};

// The observability vocabulary (defined in `dhtrng-core::telemetry`,
// wired through every stage here) re-exported so stream users reach it
// without naming the core crate.
pub use dhtrng_core::telemetry::{
    MetricsHandle, NoopRecorder, Recorder, ShardSnapshot, Snapshot, StageEvent, TraceEvent, Tracer,
};
