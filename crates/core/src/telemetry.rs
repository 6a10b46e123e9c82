//! Stage-graph telemetry: always-on lock-free counters, a pluggable
//! event [`Recorder`], and a bounded drop-oldest [`Tracer`] with a
//! Perfetto-compatible Chrome-JSON exporter.
//!
//! The streaming engine is a dataflow graph — shard workers generate
//! health-gated chunks, a merger round-robins them into the caller's
//! buffer, sessions draw conditioned bytes and harvest reseeds — and
//! every stage boundary in that graph reports here. Two layers, by
//! cost:
//!
//! * **Counters** ([`Telemetry`], read through [`MetricsHandle`] /
//!   [`Snapshot`]) are always on. Each shard owns a cache-line-aligned
//!   block of relaxed atomics ([`ShardCounters`]); stream-wide tallies
//!   (merged chunks, delivered bytes, ring park/wake counts, rollbacks,
//!   reseed grants/stalls, session bytes) live beside them. A counter
//!   bump is one relaxed `fetch_add` — no locks, no allocation, no
//!   false sharing between shards.
//! * **Events** ([`StageEvent`] through the [`Recorder`] trait) are
//!   pay-for-what-you-plug. The default recorder is [`NoopRecorder`]
//!   (the call inlines to nothing); plugging a [`Tracer`] captures a
//!   bounded, drop-oldest ring of timestamped events that exports as
//!   Chrome trace JSON — loadable in Perfetto / `chrome://tracing`,
//!   one track per shard plus a merge/session track, instant events
//!   for health verdicts and retirements.
//!
//! Timestamps are injectable: [`Tracer::deterministic`] replaces the
//! wall clock with an atomic sequence counter so tests can assert exact
//! event orders and monotonic exports with no real-time dependence.
//!
//! See `DESIGN.md` §11 for the event taxonomy and the overhead
//! argument.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One stage-boundary event in the dataflow graph.
///
/// Events are `Copy` and carry only scalars, so recording one never
/// allocates. The producer-side events (`ChunkProduced`,
/// `HealthVerdict`, `Restart`, `Retired`) are emitted by the shard
/// workers; filtered by shard, a trace is one worker's deterministic
/// life story for the given seeds. The merge/session events
/// (`ChunkMerged`, `Rollback`, `ReseedGranted`, `ReseedStalled`) are
/// emitted by the consumer side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StageEvent {
    /// A shard worker pushed a health-passed chunk into its data ring.
    ChunkProduced {
        /// Index of the producing shard.
        shard: usize,
        /// Chunk payload size in bytes.
        bytes: usize,
    },
    /// The SP 800-90B continuous tests judged a candidate chunk.
    HealthVerdict {
        /// Index of the shard whose chunk was judged.
        shard: usize,
        /// `true` iff the chunk passed both RCT and APT.
        passed: bool,
    },
    /// A health failure restarted the shard's generator.
    Restart {
        /// Index of the restarted shard.
        shard: usize,
        /// Consecutive restarts so far for the current chunk (1-based).
        consecutive: u64,
    },
    /// The shard retired — its obituary is in flight to the merger.
    Retired {
        /// Index of the retired shard.
        shard: usize,
        /// Consecutive restarts charged at retirement (0 for an
        /// injected retirement, `max_consecutive_restarts` for a
        /// health-exhaustion one).
        consecutive_restarts: u64,
    },
    /// The merger popped a chunk from a shard's data ring.
    ChunkMerged {
        /// Index of the shard the chunk came from.
        shard: usize,
        /// Chunk payload size in bytes.
        bytes: usize,
    },
    /// A failed conditioned read pushed already-copied bytes back onto
    /// the carry front (the all-or-nothing rollback contract).
    Rollback {
        /// Number of bytes rolled back.
        bytes: usize,
    },
    /// The reseed arbiter granted a session's harvest.
    ReseedGranted {
        /// Id of the session that harvested.
        session: u64,
    },
    /// A session's reseed stalled (degraded mode: re-key from last
    /// material instead of fresh entropy).
    ReseedStalled {
        /// Id of the stalled session.
        session: u64,
    },
}

/// A sink for [`StageEvent`]s, called from the engine's hot paths.
///
/// Implementations must be cheap and must not allocate per event if
/// they are to preserve the engine's zero-allocs-per-read invariant
/// (the bundled [`Tracer`] records into a pre-allocated ring). The
/// default method body drops the event, so `impl Recorder for MySink
/// {}` is a valid no-op sink.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Record one stage event. Default: drop it.
    fn record(&self, event: StageEvent) {
        let _ = event;
    }
}

/// The default recorder: every event inlines to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Per-shard counter block, aligned to its own cache line so two
/// shards bumping counters never contend on shared lines.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ShardCounters {
    chunks_produced: AtomicU64,
    bits_emitted: AtomicU64,
    health_passes: AtomicU64,
    health_failures: AtomicU64,
    restarts: AtomicU64,
    retirements: AtomicU64,
}

/// The engine-wide counter block plus the plugged [`Recorder`].
///
/// One `Telemetry` is created per stream at build time and shared
/// (`Arc`) by every worker, the merger, and the session layer. All
/// counters are relaxed atomics: they are statistics, not
/// synchronization, and the reader reconciles them against ground
/// truth (delivered bytes) rather than against each other.
#[derive(Debug)]
pub struct Telemetry {
    shards: Box<[ShardCounters]>,
    chunks_merged: AtomicU64,
    bytes_delivered: AtomicU64,
    queue_high_water: AtomicU64,
    rollbacks: AtomicU64,
    rollback_bytes: AtomicU64,
    reseeds_granted: AtomicU64,
    reseeds_stalled: AtomicU64,
    session_bytes: AtomicU64,
    // Shared with the SPSC rings across the crate boundary: the rings
    // bump these directly at their park/notify sites.
    ring_parks: Arc<AtomicU64>,
    ring_wakes: Arc<AtomicU64>,
    recorder: Arc<dyn Recorder>,
}

impl Telemetry {
    /// Create a counter block for `shards` shards feeding `recorder`.
    pub fn new(shards: usize, recorder: Arc<dyn Recorder>) -> Self {
        Self {
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            chunks_merged: AtomicU64::new(0),
            bytes_delivered: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            rollback_bytes: AtomicU64::new(0),
            reseeds_granted: AtomicU64::new(0),
            reseeds_stalled: AtomicU64::new(0),
            session_bytes: AtomicU64::new(0),
            ring_parks: Arc::new(AtomicU64::new(0)),
            ring_wakes: Arc::new(AtomicU64::new(0)),
            recorder,
        }
    }

    /// Number of shard counter blocks.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The park/wake tallies the stream's SPSC rings share, in
    /// `(parks, wakes)` order. The engine clones these into every ring
    /// it builds so blocked-thread accounting lands here.
    pub fn ring_wait_counters(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (Arc::clone(&self.ring_parks), Arc::clone(&self.ring_wakes))
    }

    /// A shard pushed a health-passed chunk of `bytes` bytes.
    pub fn chunk_produced(&self, shard: usize, bytes: usize) {
        let c = &self.shards[shard];
        c.chunks_produced.fetch_add(1, Relaxed);
        c.bits_emitted.fetch_add(bytes as u64 * 8, Relaxed);
        self.recorder
            .record(StageEvent::ChunkProduced { shard, bytes });
    }

    /// The health tests judged a candidate chunk from `shard`.
    pub fn health_verdict(&self, shard: usize, passed: bool) {
        let c = &self.shards[shard];
        if passed {
            c.health_passes.fetch_add(1, Relaxed);
        } else {
            c.health_failures.fetch_add(1, Relaxed);
        }
        self.recorder
            .record(StageEvent::HealthVerdict { shard, passed });
    }

    /// A health failure restarted `shard`'s generator (`consecutive`
    /// is 1-based within the current chunk attempt).
    pub fn restart(&self, shard: usize, consecutive: u64) {
        self.shards[shard].restarts.fetch_add(1, Relaxed);
        self.recorder
            .record(StageEvent::Restart { shard, consecutive });
    }

    /// `shard` retired with `consecutive_restarts` charged.
    pub fn retired(&self, shard: usize, consecutive_restarts: u64) {
        self.shards[shard].retirements.fetch_add(1, Relaxed);
        self.recorder.record(StageEvent::Retired {
            shard,
            consecutive_restarts,
        });
    }

    /// The merger popped a chunk from `shard`'s data ring whose depth
    /// (including the popped chunk) was `queue_depth`.
    pub fn chunk_merged(&self, shard: usize, bytes: usize, queue_depth: usize) {
        self.chunks_merged.fetch_add(1, Relaxed);
        self.queue_high_water.fetch_max(queue_depth as u64, Relaxed);
        self.recorder
            .record(StageEvent::ChunkMerged { shard, bytes });
    }

    /// `n` raw bytes were copied out to the caller.
    pub fn bytes_delivered(&self, n: usize) {
        self.bytes_delivered.fetch_add(n as u64, Relaxed);
    }

    /// A failed conditioned read rolled `bytes` bytes back onto the
    /// carry front.
    pub fn rollback(&self, bytes: usize) {
        self.rollbacks.fetch_add(1, Relaxed);
        self.rollback_bytes.fetch_add(bytes as u64, Relaxed);
        self.recorder.record(StageEvent::Rollback { bytes });
    }

    /// The arbiter granted `session`'s reseed harvest.
    pub fn reseed_granted(&self, session: u64) {
        self.reseeds_granted.fetch_add(1, Relaxed);
        self.recorder.record(StageEvent::ReseedGranted { session });
    }

    /// `session`'s reseed stalled into degraded mode.
    pub fn reseed_stalled(&self, session: u64) {
        self.reseeds_stalled.fetch_add(1, Relaxed);
        self.recorder.record(StageEvent::ReseedStalled { session });
    }

    /// `n` bytes were delivered to a session consumer.
    pub fn session_bytes(&self, n: usize) {
        self.session_bytes.fetch_add(n as u64, Relaxed);
    }

    /// Aggregate counter snapshot (shard blocks summed).
    pub fn snapshot(&self) -> Snapshot {
        let mut agg = Snapshot {
            shards: self.shards.len() as u64,
            ..Snapshot::default()
        };
        for c in self.shards.iter() {
            agg.chunks_produced += c.chunks_produced.load(Relaxed);
            agg.bits_emitted += c.bits_emitted.load(Relaxed);
            agg.health_passes += c.health_passes.load(Relaxed);
            agg.health_failures += c.health_failures.load(Relaxed);
            agg.restarts += c.restarts.load(Relaxed);
            agg.retirements += c.retirements.load(Relaxed);
        }
        agg.chunks_merged = self.chunks_merged.load(Relaxed);
        agg.bytes_delivered = self.bytes_delivered.load(Relaxed);
        agg.queue_high_water = self.queue_high_water.load(Relaxed);
        agg.ring_parks = self.ring_parks.load(Relaxed);
        agg.ring_wakes = self.ring_wakes.load(Relaxed);
        agg.rollbacks = self.rollbacks.load(Relaxed);
        agg.rollback_bytes = self.rollback_bytes.load(Relaxed);
        agg.reseeds_granted = self.reseeds_granted.load(Relaxed);
        agg.reseeds_stalled = self.reseeds_stalled.load(Relaxed);
        agg.session_bytes = self.session_bytes.load(Relaxed);
        agg
    }

    /// Per-shard counter snapshot.
    ///
    /// # Panics
    /// If `shard >= shard_count()`.
    pub fn shard_snapshot(&self, shard: usize) -> ShardSnapshot {
        let c = &self.shards[shard];
        ShardSnapshot {
            shard: shard as u64,
            chunks_produced: c.chunks_produced.load(Relaxed),
            bits_emitted: c.bits_emitted.load(Relaxed),
            health_passes: c.health_passes.load(Relaxed),
            health_failures: c.health_failures.load(Relaxed),
            restarts: c.restarts.load(Relaxed),
            retirements: c.retirements.load(Relaxed),
        }
    }
}

/// Point-in-time aggregate of every engine counter.
///
/// Relaxed loads: fields taken while workers run may be mutually
/// skewed by in-flight chunks, but each field is individually exact
/// once the stream quiesces (and `bytes_delivered` is always exact —
/// it is bumped by the reading thread itself).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Snapshot {
    /// Number of shards the stream was built with.
    pub shards: u64,
    /// Health-passed chunks pushed by all shard workers.
    pub chunks_produced: u64,
    /// Bits in those chunks (`chunks_produced * chunk_bytes * 8`).
    pub bits_emitted: u64,
    /// Chunks that passed the SP 800-90B continuous tests.
    pub health_passes: u64,
    /// Chunks the continuous tests rejected.
    pub health_failures: u64,
    /// Generator restarts triggered by health failures.
    pub restarts: u64,
    /// Shards that retired (injected or health-exhaustion).
    pub retirements: u64,
    /// Chunks the merger popped from shard data rings.
    pub chunks_merged: u64,
    /// Raw bytes copied out to callers of the stream.
    pub bytes_delivered: u64,
    /// High-water mark of any shard data ring's occupancy at merge
    /// time — the buffer-pool pressure gauge.
    pub queue_high_water: u64,
    /// Times a ring producer/consumer parked its thread.
    pub ring_parks: u64,
    /// Times a ring notify actually woke a parked peer.
    pub ring_wakes: u64,
    /// Conditioned-read rollbacks (all-or-nothing contract).
    pub rollbacks: u64,
    /// Bytes pushed back onto the carry by those rollbacks.
    pub rollback_bytes: u64,
    /// Reseed harvests the arbiter granted.
    pub reseeds_granted: u64,
    /// Reseeds that stalled into degraded re-keying.
    pub reseeds_stalled: u64,
    /// Bytes delivered to session consumers (any tier).
    pub session_bytes: u64,
}

/// Point-in-time snapshot of one shard's counter block.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardSnapshot {
    /// Index of the shard this block belongs to.
    pub shard: u64,
    /// Health-passed chunks this shard pushed.
    pub chunks_produced: u64,
    /// Bits in those chunks.
    pub bits_emitted: u64,
    /// Chunks that passed the continuous tests.
    pub health_passes: u64,
    /// Chunks the continuous tests rejected.
    pub health_failures: u64,
    /// Generator restarts on this shard.
    pub restarts: u64,
    /// 1 once this shard has retired.
    pub retirements: u64,
}

/// Cloneable read handle over a stream's [`Telemetry`].
///
/// Handed out by `EntropyStream::metrics()` / `EntropySource::
/// metrics()`; stays valid after the stream fails or is dropped —
/// counters freeze at their final values.
#[derive(Debug, Clone)]
pub struct MetricsHandle {
    telemetry: Arc<Telemetry>,
}

impl MetricsHandle {
    /// Wrap a shared telemetry block.
    pub fn new(telemetry: Arc<Telemetry>) -> Self {
        Self { telemetry }
    }

    /// Number of shards the underlying stream was built with.
    pub fn shards(&self) -> usize {
        self.telemetry.shard_count()
    }

    /// Aggregate counter snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    /// Per-shard counter snapshot.
    ///
    /// # Panics
    /// If `shard >= self.shards()`.
    pub fn shard_snapshot(&self, shard: usize) -> ShardSnapshot {
        self.telemetry.shard_snapshot(shard)
    }

    /// Derived per-shard throughput in Mbps: the growth of one shard's
    /// `bits_emitted` from `baseline` to now, over a caller-supplied
    /// observation window.
    ///
    /// The caller owns the clock: take a
    /// [`shard_snapshot`](Self::shard_snapshot), wait (or work) for
    /// `window`, then call this with both. Counters only grow, so the rate is never
    /// negative; a zero-length window returns infinity on any growth
    /// and 0.0 otherwise.
    ///
    /// # Panics
    /// If `baseline.shard >= self.shards()`.
    pub fn shard_mbps(&self, baseline: &ShardSnapshot, window: std::time::Duration) -> f64 {
        let now = self.telemetry.shard_snapshot(baseline.shard as usize);
        let grown = now.bits_emitted.saturating_sub(baseline.bits_emitted);
        let secs = window.as_secs_f64();
        if secs == 0.0 {
            if grown == 0 {
                return 0.0;
            }
            return f64::INFINITY;
        }
        grown as f64 / secs / 1e6
    }

    /// Derived throughput for every shard at once: element `i` is the
    /// Mbps shard `i` sustained between `baseline` and now, over the
    /// caller-supplied window. Baselines taken with
    /// [`per_shard_baseline`](Self::per_shard_baseline).
    pub fn per_shard_mbps(
        &self,
        baseline: &[ShardSnapshot],
        window: std::time::Duration,
    ) -> Vec<f64> {
        baseline
            .iter()
            .map(|b| self.shard_mbps(b, window))
            .collect()
    }

    /// Snapshot of every shard's counters, as a baseline for
    /// [`per_shard_mbps`](Self::per_shard_mbps).
    pub fn per_shard_baseline(&self) -> Vec<ShardSnapshot> {
        (0..self.shards()).map(|s| self.shard_snapshot(s)).collect()
    }
}

/// One timestamped event captured by a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in microseconds (wall clock) or sequence number
    /// (injected deterministic clock). Monotonically non-decreasing in
    /// capture order.
    pub ts: u64,
    /// The recorded stage event.
    pub event: StageEvent,
}

#[derive(Debug)]
enum TraceClock {
    /// Microseconds since tracer construction.
    Wall(Instant),
    /// Deterministic: each stamp is the next integer in sequence.
    Injected(AtomicU64),
}

impl TraceClock {
    fn now(&self) -> u64 {
        match self {
            TraceClock::Wall(epoch) => epoch.elapsed().as_micros() as u64,
            TraceClock::Injected(seq) => seq.fetch_add(1, Relaxed),
        }
    }
}

/// A bounded, drop-oldest ring of [`TraceEvent`]s.
///
/// The buffer is allocated once at construction; recording into a full
/// tracer evicts the oldest event (counted in [`Tracer::dropped`])
/// rather than growing, so a plugged tracer preserves the engine's
/// zero-allocs-per-read invariant. Capture order is total (one mutex
/// guards the ring), so timestamps in [`Tracer::events`] and the
/// Chrome-JSON export are monotonically non-decreasing.
#[derive(Debug)]
pub struct Tracer {
    buffer: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    clock: TraceClock,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Tracer {
    /// A wall-clock tracer holding at most `capacity` events.
    ///
    /// # Panics
    /// If `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        Self::with_clock(capacity, TraceClock::Wall(Instant::now()))
    }

    /// A deterministic tracer: timestamps are an injected sequence
    /// counter (0, 1, 2, …) instead of the wall clock, so two runs of
    /// the same workload capture identical traces.
    ///
    /// # Panics
    /// If `capacity` is 0.
    pub fn deterministic(capacity: usize) -> Self {
        Self::with_clock(capacity, TraceClock::Injected(AtomicU64::new(0)))
    }

    fn with_clock(capacity: usize, clock: TraceClock) -> Self {
        assert!(capacity > 0, "tracer capacity must be non-zero");
        Self {
            buffer: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            clock,
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Relaxed)
    }

    /// Events evicted by the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buffer
            .lock()
            .expect("tracer mutex poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Export the retained events as Chrome trace JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// Track layout: `pid` 1 throughout; `tid` 0 is the merge/session
    /// track (`ChunkMerged`, `Rollback`, `ReseedGranted`,
    /// `ReseedStalled`), `tid` N+1 is shard N's production track.
    /// Chunk production/merge render as 1-tick complete events (`"X"`)
    /// so the tracks show activity; verdicts, restarts, retirements,
    /// rollbacks, and reseed outcomes are thread-scoped instant events
    /// (`"i"`). Thread-name metadata (`"M"`) rows come first; the data
    /// events that follow are in capture order with monotonically
    /// non-decreasing timestamps.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |out: &mut String, row: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&row);
        };
        // Name every track that appears, metadata rows first.
        let mut tids: Vec<u64> = events.iter().map(|e| chrome_tid(&e.event)).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let name = if tid == 0 {
                "merge/session".to_string()
            } else {
                format!("shard-{}", tid - 1)
            };
            emit(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        for TraceEvent { ts, event } in events {
            let tid = chrome_tid(&event);
            let mut row = String::with_capacity(96);
            match event {
                StageEvent::ChunkProduced { shard, bytes } => write!(
                    row,
                    "{{\"name\":\"chunk_produced\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"shard\":{shard},\"bytes\":{bytes}}}}}"
                ),
                StageEvent::ChunkMerged { shard, bytes } => write!(
                    row,
                    "{{\"name\":\"chunk_merged\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"shard\":{shard},\"bytes\":{bytes}}}}}"
                ),
                StageEvent::HealthVerdict { shard, passed } => write!(
                    row,
                    "{{\"name\":\"health_{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"shard\":{shard}}}}}",
                    if passed { "pass" } else { "fail" }
                ),
                StageEvent::Restart { shard, consecutive } => write!(
                    row,
                    "{{\"name\":\"restart\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"shard\":{shard},\"consecutive\":{consecutive}}}}}"
                ),
                StageEvent::Retired {
                    shard,
                    consecutive_restarts,
                } => write!(
                    row,
                    "{{\"name\":\"retired\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"shard\":{shard},\
                     \"consecutive_restarts\":{consecutive_restarts}}}}}"
                ),
                StageEvent::Rollback { bytes } => write!(
                    row,
                    "{{\"name\":\"rollback\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"bytes\":{bytes}}}}}"
                ),
                StageEvent::ReseedGranted { session } => write!(
                    row,
                    "{{\"name\":\"reseed_granted\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"session\":{session}}}}}"
                ),
                StageEvent::ReseedStalled { session } => write!(
                    row,
                    "{{\"name\":\"reseed_stalled\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"session\":{session}}}}}"
                ),
            }
            .expect("writing to a String cannot fail");
            emit(&mut out, row);
        }
        out.push_str("]}");
        out
    }
}

impl Recorder for Tracer {
    fn record(&self, event: StageEvent) {
        let ts = self.clock.now();
        let mut buffer = self.buffer.lock().expect("tracer mutex poisoned");
        if buffer.len() == self.capacity {
            buffer.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        buffer.push_back(TraceEvent { ts, event });
        self.recorded.fetch_add(1, Relaxed);
    }
}

/// Chrome-JSON track id for an event: 0 = merge/session, N+1 = shard N.
fn chrome_tid(event: &StageEvent) -> u64 {
    match event {
        StageEvent::ChunkProduced { shard, .. }
        | StageEvent::HealthVerdict { shard, .. }
        | StageEvent::Restart { shard, .. }
        | StageEvent::Retired { shard, .. } => *shard as u64 + 1,
        StageEvent::ChunkMerged { .. }
        | StageEvent::Rollback { .. }
        | StageEvent::ReseedGranted { .. }
        | StageEvent::ReseedStalled { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_across_shards() {
        let t = Telemetry::new(2, Arc::new(NoopRecorder));
        t.chunk_produced(0, 64);
        t.chunk_produced(1, 64);
        t.health_verdict(0, true);
        t.health_verdict(1, false);
        t.restart(1, 1);
        t.retired(1, 3);
        t.chunk_merged(0, 64, 2);
        t.bytes_delivered(64);
        t.rollback(7);
        t.reseed_granted(1);
        t.reseed_stalled(2);
        t.session_bytes(32);
        let s = t.snapshot();
        assert_eq!(s.shards, 2);
        assert_eq!(s.chunks_produced, 2);
        assert_eq!(s.bits_emitted, 2 * 64 * 8);
        assert_eq!(s.health_passes, 1);
        assert_eq!(s.health_failures, 1);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.retirements, 1);
        assert_eq!(s.chunks_merged, 1);
        assert_eq!(s.bytes_delivered, 64);
        assert_eq!(s.queue_high_water, 2);
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.rollback_bytes, 7);
        assert_eq!(s.reseeds_granted, 1);
        assert_eq!(s.reseeds_stalled, 1);
        assert_eq!(s.session_bytes, 32);
        let s1 = t.shard_snapshot(1);
        assert_eq!(s1.shard, 1);
        assert_eq!(s1.chunks_produced, 1);
        assert_eq!(s1.health_failures, 1);
        assert_eq!(s1.restarts, 1);
        assert_eq!(s1.retirements, 1);
    }

    #[test]
    fn tracer_drops_oldest_and_keeps_timestamps_monotonic() {
        let tracer = Tracer::deterministic(3);
        for shard in 0..5usize {
            tracer.record(StageEvent::ChunkProduced { shard, bytes: 1 });
        }
        assert_eq!(tracer.recorded(), 5);
        assert_eq!(tracer.dropped(), 2);
        let events = tracer.events();
        assert_eq!(events.len(), 3);
        // Oldest two evicted: shards 2, 3, 4 remain with ts 2, 3, 4.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.ts, i as u64 + 2);
            assert_eq!(
                e.event,
                StageEvent::ChunkProduced {
                    shard: i + 2,
                    bytes: 1
                }
            );
        }
    }

    #[test]
    fn chrome_export_names_every_track() {
        let tracer = Tracer::deterministic(16);
        tracer.record(StageEvent::HealthVerdict {
            shard: 0,
            passed: true,
        });
        tracer.record(StageEvent::ChunkProduced { shard: 0, bytes: 8 });
        tracer.record(StageEvent::ChunkMerged { shard: 0, bytes: 8 });
        tracer.record(StageEvent::Retired {
            shard: 0,
            consecutive_restarts: 0,
        });
        let json = tracer.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"merge/session\""));
        assert!(json.contains("\"shard-0\""));
        assert!(json.contains("\"chunk_produced\""));
        assert!(json.contains("\"retired\""));
    }
}
