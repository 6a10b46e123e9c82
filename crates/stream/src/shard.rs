//! Shard workers: one DH-TRNG instance per thread, producing
//! health-tested chunks into recycled pool buffers.
//!
//! Each worker owns a [`DhTrng`] (driven as a stage-graph
//! [`BlockSource`]) and a continuous [`HealthMonitor`] (SP 800-90B §4.4
//! RCT + APT) over the bits it delivers. Buffers arrive over the pool
//! return ring — the worker never allocates a chunk; it regenerates
//! into the same storage. A chunk whose bits trip the monitor is
//! **discarded whole** (regenerated in place), the instance is
//! power-cycled via [`DhTrng::restart`] (fresh metastable startup
//! state, as in the paper's §4.2 restart test), the monitor is reset,
//! and the chunk is regenerated — the consumer never sees unhealthy
//! bytes and never sees a gap. A shard that cannot produce a healthy
//! chunk within the configured number of consecutive restarts reports
//! [`Error::ShardFailed`] and retires instead of flooding restarts
//! forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dhtrng_core::kernel::{BitBlock, BlockSource};
use dhtrng_core::telemetry::Telemetry;
use dhtrng_core::{DhTrng, HealthMonitor, HealthStatus};

use crate::error::{ConfigError, Error};
use crate::ring::{Consumer, Producer};

/// Cutoffs for the per-shard continuous health tests.
///
/// The defaults are the SP 800-90B §4.4 values [`HealthMonitor::new`]
/// uses (`alpha = 2^-30`, `H = 0.99`): a healthy DH-TRNG essentially
/// never trips them. Tighter cutoffs are useful to exercise the restart
/// machinery deterministically in tests.
///
/// Cutoffs that arrive from **untrusted input** (a daemon config file,
/// a peer) should come through [`builder`](Self::builder), which
/// returns a typed [`ConfigError`] instead of panicking; the plain
/// struct literal stays available for in-process construction where a
/// bad value is a programmer error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Repetition Count Test cutoff (must exceed 1).
    pub rct_cutoff: u32,
    /// Adaptive Proportion Test window size.
    pub apt_window: u32,
    /// Adaptive Proportion Test cutoff (at most the window).
    pub apt_cutoff: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            rct_cutoff: 32,
            apt_window: 1024,
            apt_cutoff: 624,
        }
    }
}

impl HealthConfig {
    /// Starts configuring cutoffs with validation — the path for
    /// untrusted input.
    pub fn builder() -> HealthConfigBuilder {
        HealthConfigBuilder {
            config: Self::default(),
        }
    }

    /// Checks the invariants [`monitor`](Self::monitor) would otherwise
    /// panic on.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rct_cutoff <= 1 {
            return Err(ConfigError::RctCutoff {
                got: self.rct_cutoff,
            });
        }
        if self.apt_window == 0 {
            return Err(ConfigError::AptWindow);
        }
        if self.apt_cutoff == 0 {
            return Err(ConfigError::AptCutoff);
        }
        if self.apt_cutoff > self.apt_window {
            return Err(ConfigError::AptCutoffExceedsWindow {
                cutoff: self.apt_cutoff,
                window: self.apt_window,
            });
        }
        Ok(())
    }

    /// Builds a monitor with these cutoffs.
    ///
    /// # Panics
    ///
    /// Panics on invalid cutoffs (see [`HealthMonitor::with_cutoffs`]);
    /// validate untrusted values first via [`builder`](Self::builder)
    /// or [`validate`](Self::validate).
    pub fn monitor(&self) -> HealthMonitor {
        HealthMonitor::with_cutoffs(self.rct_cutoff, self.apt_window, self.apt_cutoff)
    }
}

/// Builder-style, validated construction of [`HealthConfig`] — returns
/// typed errors instead of panicking, so daemon configuration parsed
/// from untrusted input cannot take the process down.
///
/// ```
/// use dhtrng_stream::{ConfigError, HealthConfig};
///
/// let health = HealthConfig::builder()
///     .rct_cutoff(20)
///     .apt_window(512)
///     .apt_cutoff(400)
///     .build()
///     .expect("valid cutoffs");
/// assert_eq!(health.rct_cutoff, 20);
///
/// let err = HealthConfig::builder().apt_cutoff(4096).build().unwrap_err();
/// assert_eq!(
///     err,
///     ConfigError::AptCutoffExceedsWindow { cutoff: 4096, window: 1024 }
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct HealthConfigBuilder {
    config: HealthConfig,
}

impl HealthConfigBuilder {
    /// Repetition Count Test cutoff (must exceed 1 at build time).
    #[must_use]
    pub fn rct_cutoff(mut self, cutoff: u32) -> Self {
        self.config.rct_cutoff = cutoff;
        self
    }

    /// Adaptive Proportion Test window size (positive at build time).
    #[must_use]
    pub fn apt_window(mut self, window: u32) -> Self {
        self.config.apt_window = window;
        self
    }

    /// Adaptive Proportion Test cutoff (positive, at most the window,
    /// at build time).
    #[must_use]
    pub fn apt_cutoff(mut self, cutoff: u32) -> Self {
        self.config.apt_cutoff = cutoff;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// The first violated invariant (see [`HealthConfig::validate`]).
    pub fn build(self) -> Result<HealthConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// What a shard sends down its data ring: a healthy chunk (in a pool
/// buffer the consumer must eventually return), or its own obituary —
/// the in-band retirement tag that keeps the error in the shard's
/// round-robin queue position.
pub(crate) type ShardMessage = Result<Vec<u8>, Error>;

/// The state a shard worker thread runs with.
pub(crate) struct ShardWorker {
    pub(crate) shard: usize,
    pub(crate) trng: DhTrng,
    pub(crate) health: HealthConfig,
    pub(crate) chunk_bytes: usize,
    pub(crate) max_consecutive_restarts: u32,
    /// Shared restart counter (read by the engine's statistics).
    pub(crate) restarts: Arc<AtomicU64>,
    /// Recycled buffers come back from the consumer over this ring.
    pub(crate) pool: Consumer<Vec<u8>>,
    /// Deterministic fault injection: retire after this many healthy
    /// chunks (`None` = never).
    pub(crate) fail_after_chunks: Option<u64>,
    /// Stream-wide counters + event recorder (shared with every stage).
    pub(crate) telemetry: Arc<Telemetry>,
}

impl ShardWorker {
    /// Produces chunks until the consumer hangs up or the shard dies.
    pub(crate) fn run(mut self, mut tx: Producer<ShardMessage>) {
        let mut monitor = self.health.monitor();
        let mut healthy_sent = 0u64;
        loop {
            if self.fail_after_chunks == Some(healthy_sent) {
                // Injected retirement: deterministic in the chunk count,
                // independent of thread timing.
                self.telemetry.retired(self.shard, 0);
                let _ = tx.push(Err(Error::ShardFailed {
                    shard: self.shard,
                    consecutive_restarts: 0,
                }));
                return;
            }
            // Zero-allocation steady state: wait for a recycled buffer
            // instead of allocating. A hung-up return ring means the
            // consumer dropped the stream: orderly shutdown.
            let Ok(mut buffer) = self.pool.pop() else {
                return;
            };
            buffer.resize(self.chunk_bytes, 0);
            match self.next_healthy_chunk_into(&mut monitor, &mut buffer) {
                Ok(()) => {
                    if tx.push(Ok(buffer)).is_err() {
                        // Consumer dropped the stream: orderly shutdown.
                        return;
                    }
                    self.telemetry.chunk_produced(self.shard, self.chunk_bytes);
                    healthy_sent += 1;
                }
                Err(failure) => {
                    // Best effort: the consumer may already be gone.
                    let _ = tx.push(Err(failure));
                    return;
                }
            }
        }
    }

    /// Regenerates `buffer` in place (restarting the instance on health
    /// failure) until its contents pass, or the restart budget is
    /// exhausted and the shard retires.
    fn next_healthy_chunk_into(
        &mut self,
        monitor: &mut HealthMonitor,
        buffer: &mut [u8],
    ) -> Result<(), Error> {
        let mut restarts_performed = 0u32;
        loop {
            let mut block = BitBlock::empty(buffer);
            self.trng.fill_block(&mut block);
            let healthy = chunk_is_healthy(monitor, buffer);
            self.telemetry.health_verdict(self.shard, healthy);
            if healthy {
                return Ok(());
            }
            // The chunk is tainted and always discarded (overwritten on
            // the next attempt); whether another power-cycle is worth it
            // depends on the remaining budget.
            if restarts_performed >= self.max_consecutive_restarts {
                self.telemetry
                    .retired(self.shard, u64::from(restarts_performed));
                return Err(Error::ShardFailed {
                    shard: self.shard,
                    consecutive_restarts: restarts_performed,
                });
            }
            // Graceful restart: power-cycle the instance and start the
            // monitor over on the fresh source. The shared counter
            // counts restarts actually performed.
            restarts_performed += 1;
            self.restarts.fetch_add(1, Ordering::Relaxed);
            self.telemetry
                .restart(self.shard, u64::from(restarts_performed));
            self.trng.restart();
            *monitor = self.health.monitor();
        }
    }
}

/// Feeds a chunk through the monitor, MSB first; `false` as soon as any
/// bit trips.
pub(crate) fn chunk_is_healthy(monitor: &mut HealthMonitor, chunk: &[u8]) -> bool {
    monitor.feed_bytes(chunk) == HealthStatus::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_core::Trng;

    #[test]
    fn default_cutoffs_match_health_monitor_defaults() {
        // Keep HealthConfig::default() in lockstep with
        // HealthMonitor::new(): same trip behaviour on a stuck source.
        let mut from_config = HealthConfig::default().monitor();
        let mut from_new = HealthMonitor::new();
        let mut config_trip = None;
        let mut new_trip = None;
        for i in 0..2048 {
            if from_config.feed(true) != HealthStatus::Ok && config_trip.is_none() {
                config_trip = Some(i);
            }
            if from_new.feed(true) != HealthStatus::Ok && new_trip.is_none() {
                new_trip = Some(i);
            }
        }
        assert_eq!(config_trip, new_trip);
        assert!(config_trip.is_some());
    }

    #[test]
    fn healthy_chunks_pass_default_cutoffs() {
        let mut trng = DhTrng::builder().seed(42).build();
        let mut chunk = vec![0u8; 8192];
        trng.fill_bytes(&mut chunk);
        let mut monitor = HealthConfig::default().monitor();
        assert!(chunk_is_healthy(&mut monitor, &chunk));
    }

    #[test]
    fn stuck_chunk_trips() {
        let mut monitor = HealthConfig::default().monitor();
        assert!(!chunk_is_healthy(&mut monitor, &[0xFF; 16]));
    }

    /// The bit-serial gate: every bit through `feed`, MSB first, up to
    /// the first failure.
    fn serial_gate(monitor: &mut HealthMonitor, chunk: &[u8]) -> HealthStatus {
        for &byte in chunk {
            for i in (0..8).rev() {
                let status = monitor.feed((byte >> i) & 1 == 1);
                if status != HealthStatus::Ok {
                    return status;
                }
            }
        }
        HealthStatus::Ok
    }

    /// Gates `chunk` both ways from fresh default monitors; both must
    /// reject it at the same bit, and `serial_gate`'s status is returned.
    fn gate_both_ways(chunk: &[u8]) -> (HealthStatus, HealthMonitor) {
        let mut word = HealthConfig::default().monitor();
        let mut serial = word.clone();
        let status = serial_gate(&mut serial, chunk);
        assert!(!chunk_is_healthy(&mut word, chunk));
        assert_eq!(word, serial, "both gates stop on the same bit");
        (status, word)
    }

    #[test]
    fn stuck_at_chunk_trips_where_the_serial_gate_does() {
        // A healthy 64 KiB chunk whose source sticks at 1 for 40 bits
        // from bit 300_003 (mid-word) on.
        let mut chunk = vec![0u8; 64 * 1024];
        DhTrng::builder().seed(5).build().fill_bytes(&mut chunk);
        for bit in 300_003..300_043 {
            chunk[bit / 8] |= 0x80 >> (bit % 8);
        }
        let (status, monitor) = gate_both_ways(&chunk);
        assert_eq!(status, HealthStatus::RepetitionFailure);
        assert!(monitor.bits_seen() <= 300_003 + 32);
    }

    #[test]
    fn biased_chunk_trips_where_the_serial_gate_does() {
        // 75% ones: the OR of two independent healthy chunks.
        let (mut chunk, mut other) = (vec![0u8; 64 * 1024], vec![0u8; 64 * 1024]);
        DhTrng::builder().seed(6).build().fill_bytes(&mut chunk);
        DhTrng::builder().seed(7).build().fill_bytes(&mut other);
        for (a, b) in chunk.iter_mut().zip(&other) {
            *a |= b;
        }
        let (status, _) = gate_both_ways(&chunk);
        assert_eq!(status, HealthStatus::ProportionFailure);
    }
}
