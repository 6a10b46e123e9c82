//! The unified error surface of the streaming stack.
//!
//! Every layer — shard workers, the merge, sessions, and the daemon's
//! session arbitration — reports failures as one [`Error`]; a retiring
//! shard's obituary travels down its ring already in this type. The
//! daemon front-end (`dhtrng-serve`) is why: its retry and degradation
//! logic needs **one** error vocabulary with a machine-checkable
//! [retriability classification](Error::is_retriable), not a per-layer
//! zoo of variants to match on.
//!
//! [`Error`] is `#[non_exhaustive]`: downstream matches must carry a
//! wildcard arm, which is what lets the service grow new failure modes
//! (and it will — see `DESIGN.md` §8) without a breaking release.
//! Callers that only care about *retry or give up* should branch on
//! [`is_retriable`](Error::is_retriable) instead of matching variants.

use std::fmt;

/// Why a configuration was rejected by a validating builder
/// ([`HealthConfig::builder`](crate::shard::HealthConfig::builder),
/// [`SourceBuilder::build`](crate::api::SourceBuilder::build)).
///
/// Server configuration arrives from untrusted input (a config file, a
/// peer's `Hello`), so the validating paths return this typed error
/// instead of panicking the daemon; the in-process
/// [`EntropyStreamBuilder::build`](crate::engine::EntropyStreamBuilder::build)
/// keeps its documented panics for programmer errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The Repetition Count Test cutoff must exceed 1.
    RctCutoff {
        /// The rejected cutoff.
        got: u32,
    },
    /// The Adaptive Proportion Test window must be positive.
    AptWindow,
    /// The Adaptive Proportion Test cutoff must be positive.
    AptCutoff,
    /// The APT cutoff cannot exceed the APT window.
    AptCutoffExceedsWindow {
        /// The rejected cutoff.
        cutoff: u32,
        /// The window it exceeds.
        window: u32,
    },
    /// The shard count must be in `1..=64`.
    Shards {
        /// The rejected shard count.
        got: usize,
    },
    /// `chunk_bytes` must be positive.
    ChunkBytes,
    /// `queue_chunks` must be positive.
    QueueChunks,
    /// An explicit seed schedule must have one seed per shard.
    SeedSchedule {
        /// Shards configured.
        expected: usize,
        /// Seeds supplied.
        got: usize,
    },
    /// An injected failure names a shard outside the configured range.
    InjectedShard {
        /// The out-of-range shard index.
        shard: usize,
        /// Shards configured.
        shards: usize,
    },
    /// The DRBG policy's `seed_bytes` must be positive.
    SeedBytes,
    /// A conditioner fold factor or compression ratio must be positive.
    ConditionerRatio,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::RctCutoff { got } => write!(f, "RCT cutoff must exceed 1, got {got}"),
            Self::AptWindow => write!(f, "APT window must be positive"),
            Self::AptCutoff => write!(f, "APT cutoff must be positive"),
            Self::AptCutoffExceedsWindow { cutoff, window } => {
                write!(f, "APT cutoff {cutoff} exceeds the window {window}")
            }
            Self::Shards { got } => write!(f, "shard count must be 1..=64, got {got}"),
            Self::ChunkBytes => write!(f, "chunk_bytes must be positive"),
            Self::QueueChunks => write!(f, "queue_chunks must be positive"),
            Self::SeedSchedule { expected, got } => {
                write!(
                    f,
                    "seed schedule length must equal the shard count: \
                     {got} seeds for {expected} shards"
                )
            }
            Self::InjectedShard { shard, shards } => {
                write!(f, "injected failure names shard {shard} of {shards}")
            }
            Self::SeedBytes => write!(f, "DRBG seed_bytes must be positive"),
            Self::ConditionerRatio => {
                write!(
                    f,
                    "conditioner fold factor / compression ratio must be positive"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any failure of the streaming stack — engine, tiers, sessions, and
/// the daemon's session arbitration all speak this one type.
///
/// `#[non_exhaustive]`: match with a wildcard arm, or better, branch on
/// [`is_retriable`](Self::is_retriable) — the classification the
/// daemon's retry/degradation logic is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A shard exhausted its consecutive-restart budget and retired.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// Restart attempts consumed before giving up (0 for an
        /// injected retirement).
        consecutive_restarts: u32,
    },
    /// A shard worker vanished without reporting (panicked).
    ShardDisconnected {
        /// Index of the lost shard.
        shard: usize,
    },
    /// A session asked for more bytes than its quota has left. The
    /// session stays usable within the remaining budget; the request
    /// itself delivered nothing.
    QuotaExceeded {
        /// Bytes the rejected request asked for.
        requested: u64,
        /// Bytes the session may still read.
        remaining: u64,
    },
    /// Scarce entropy is being arbitrated and this consumer is over its
    /// fair share right now; the identical request is expected to
    /// succeed after other sessions take their turns.
    Backpressure,
    /// A validating builder rejected untrusted configuration.
    InvalidConfig(
        /// What was rejected, and why.
        ConfigError,
    ),
}

impl Error {
    /// Whether retrying the same operation can succeed without any
    /// other intervention.
    ///
    /// The daemon's serving loop is built on this split: retriable
    /// errors ([`Backpressure`](Self::Backpressure)) are waited out and
    /// retried; non-retriable errors either end the session
    /// ([`QuotaExceeded`](Self::QuotaExceeded),
    /// [`InvalidConfig`](Self::InvalidConfig)) or flip the source into
    /// degraded mode ([`ShardFailed`](Self::ShardFailed),
    /// [`ShardDisconnected`](Self::ShardDisconnected) — terminal for
    /// raw/conditioned consumers, survivable for DRBG sessions, which
    /// keep serving from their deterministic state while reseeds
    /// stall).
    pub fn is_retriable(&self) -> bool {
        match self {
            Self::Backpressure => true,
            Self::ShardFailed { .. }
            | Self::ShardDisconnected { .. }
            | Self::QuotaExceeded { .. }
            | Self::InvalidConfig(_) => false,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Retirement has two causes (an exhausted health-restart
            // budget, or an injected fault reporting zero restarts), so
            // the message claims only what the payload actually records.
            Self::ShardFailed {
                shard,
                consecutive_restarts,
            } => write!(
                f,
                "shard {shard} retired after {consecutive_restarts} consecutive restarts"
            ),
            Self::ShardDisconnected { shard } => write!(f, "shard {shard} worker disconnected"),
            Self::QuotaExceeded {
                requested,
                remaining,
            } => write!(
                f,
                "session quota exceeded: requested {requested} bytes, {remaining} remaining"
            ),
            Self::Backpressure => write!(f, "entropy arbiter backpressure; retry after a turn"),
            Self::InvalidConfig(cause) => write!(f, "invalid configuration: {cause}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidConfig(cause) => Some(cause),
            _ => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(cause: ConfigError) -> Self {
        Self::InvalidConfig(cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retriability_classification_is_what_the_daemon_relies_on() {
        assert!(Error::Backpressure.is_retriable());
        for terminal in [
            Error::ShardFailed {
                shard: 0,
                consecutive_restarts: 3,
            },
            Error::ShardDisconnected { shard: 1 },
            Error::QuotaExceeded {
                requested: 10,
                remaining: 3,
            },
            Error::InvalidConfig(ConfigError::AptWindow),
        ] {
            assert!(!terminal.is_retriable(), "{terminal}");
        }
    }

    #[test]
    fn config_error_chains_as_the_source() {
        let err = Error::from(ConfigError::RctCutoff { got: 1 });
        let source = std::error::Error::source(&err).expect("chained cause");
        assert_eq!(source.to_string(), "RCT cutoff must exceed 1, got 1");
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn displays_name_the_payload() {
        let err = Error::QuotaExceeded {
            requested: 64,
            remaining: 8,
        };
        assert_eq!(
            err.to_string(),
            "session quota exceeded: requested 64 bytes, 8 remaining"
        );
    }
}
