//! The stage-graph executor: one merge loop + recycled buffer pool
//! driving every output tier.
//!
//! Before this module existed, each layer of the output chain pulled
//! from the one below it through its own private buffers — the engine
//! replaced its current chunk `Vec` per refill, the conditioned stage
//! copied raw bytes into a scratch array and re-buffered its output
//! byte-by-byte into a `VecDeque`, and the DRBG pool allocated seed
//! material per reseed. The executor collapses that stack into one
//! dataflow over **recycled chunk buffers**:
//!
//! * every shard owns a fixed set of `queue_chunks + 2` buffers,
//!   created once at build time: one being filled by the worker, up to
//!   `queue_chunks` in the bounded data queue, one drained by the
//!   consumer. Drained buffers return to their shard's worker over a
//!   **return ring**, so the steady-state read path performs **zero
//!   heap allocation** (pinned by `tests/zero_alloc.rs` and reported
//!   in `BENCH_9.json`);
//! * the consumer merges chunks **round-robin in shard order** (chunk
//!   `k` of the stream is chunk `k / N` of shard `k % N`), exactly as
//!   before — the merged stream stays a pure function of the shard
//!   seed schedule;
//! * downstream stages borrow the current chunk *in place* via
//!   [`Executor::with_chunk`] (a [`Stage`](dhtrng_core::kernel::Stage)
//!   transforms the pooled bytes where they sit) instead of copying
//!   them out first.
//!
//! # Shard-retirement merge order
//!
//! When a shard retires (health failure through its restart budget, a
//! panicked worker, or an injected failure), its terminal error is a
//! message *in its queue position*: the executor keeps serving chunks
//! from the other shards until the round-robin cursor reaches the
//! retired shard's slot, and only then surfaces the error — which is
//! then latched forever. Every chunk merged before that slot is
//! delivered. The merged prefix of a stream with a shard that retires
//! after its `k`-th chunk is therefore deterministic: all chunks in
//! round-robin order through round `k`, then the chunks of the
//! earlier-in-rotation shards of round `k + 1`, then the typed error.
//! `tests/streaming.rs` pins this with a 3-shard stream whose middle
//! shard retires mid-read.

use std::sync::Arc;
use std::thread::JoinHandle;

use dhtrng_core::telemetry::Telemetry;

use crate::error::Error;
use crate::ring::{Consumer, Producer, TryPopError};
use crate::shard::ShardMessage;

/// The consumer ends of one shard's ring pair: produced chunks arrive
/// on `data`; drained buffers go home over `pool`. Both directions are
/// lock-free SPSC rings (see [`crate::ring`]) — the executor is the
/// single consumer of `data` and the single producer of `pool`.
#[derive(Debug)]
pub(crate) struct ShardLink {
    pub(crate) data: Consumer<ShardMessage>,
    pub(crate) pool: Producer<Vec<u8>>,
}

/// The merge loop + buffer pool behind every tier (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Executor {
    links: Vec<ShardLink>,
    workers: Vec<JoinHandle<()>>,
    /// Next shard in the round-robin rotation.
    cursor: usize,
    /// The chunk being drained (empty before the first refill).
    current: Vec<u8>,
    /// Which shard `current` came from (meaningless while empty).
    current_shard: usize,
    /// Bytes of `current` already consumed.
    offset: usize,
    failed: Option<Error>,
    bytes_delivered: u64,
    /// Pool buffers created at build time (a pure function of the
    /// configuration; the pool never grows afterwards).
    buffers_created: usize,
    /// Stream-wide counters + event recorder (shared with every stage).
    telemetry: Arc<Telemetry>,
}

impl Executor {
    pub(crate) fn new(
        links: Vec<ShardLink>,
        workers: Vec<JoinHandle<()>>,
        buffers_created: usize,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Self {
            links,
            workers,
            cursor: 0,
            current: Vec::new(),
            current_shard: 0,
            offset: 0,
            failed: None,
            bytes_delivered: 0,
            buffers_created,
            telemetry,
        }
    }

    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    pub(crate) fn shards(&self) -> usize {
        self.links.len()
    }

    pub(crate) fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    pub(crate) fn failed(&self) -> Option<Error> {
        self.failed
    }

    pub(crate) fn buffers_created(&self) -> usize {
        self.buffers_created
    }

    /// Sends the drained current buffer home to its shard's pool ring.
    /// A no-op before the first refill; a dead worker (consumer side
    /// gone) just drops the buffer. The pool ring's capacity covers
    /// every buffer the shard owns, so the push never blocks.
    fn recycle_current(&mut self) {
        if !self.current.is_empty() {
            let buffer = std::mem::take(&mut self.current);
            let _ = self.links[self.current_shard].pool.push(buffer);
        }
        self.offset = 0;
    }

    /// Pops the next chunk, round-robin in shard order, recycling the
    /// drained one. Does **not** latch the failure (callers decide).
    fn refill(&mut self) -> Result<(), Error> {
        let shard = self.cursor;
        // Depth before the pop = depth including the chunk we are about
        // to take — the queue-pressure sample for the high-water mark.
        let depth = self.links[shard].data.len();
        match self.links[shard].data.pop() {
            Ok(Ok(chunk)) => {
                // `depth.max(1)`: a pop that blocked sampled an empty
                // ring, but it still took one chunk.
                self.telemetry
                    .chunk_merged(shard, chunk.len(), depth.max(1));
                self.recycle_current();
                self.current = chunk;
                self.current_shard = shard;
                self.cursor = (self.cursor + 1) % self.links.len();
                Ok(())
            }
            Ok(Err(error)) => Err(error),
            Err(_) => Err(Error::ShardDisconnected { shard }),
        }
    }

    /// Fills `out` with the next merged bytes (the raw-tier read path:
    /// pooled chunk → caller buffer, nothing in between).
    pub(crate) fn read(&mut self, out: &mut [u8]) -> Result<(), Error> {
        if let Some(error) = self.failed {
            return Err(error);
        }
        let mut written = 0;
        while written < out.len() {
            if self.offset == self.current.len() {
                if let Err(error) = self.refill() {
                    self.failed = Some(error);
                    return Err(error);
                }
            }
            let take = (out.len() - written).min(self.current.len() - self.offset);
            out[written..written + take]
                .copy_from_slice(&self.current[self.offset..self.offset + take]);
            self.offset += take;
            written += take;
            self.bytes_delivered += take as u64;
            self.telemetry.bytes_delivered(take);
        }
        Ok(())
    }

    /// Hands the unconsumed remainder of the next chunk to `f` for
    /// in-place processing, then recycles the buffer. The whole
    /// remainder counts as delivered: this is how downstream stages
    /// consume the raw stream without re-buffering it.
    pub(crate) fn with_chunk<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> Result<R, Error> {
        if let Some(error) = self.failed {
            return Err(error);
        }
        if self.offset == self.current.len() {
            if let Err(error) = self.refill() {
                self.failed = Some(error);
                return Err(error);
            }
        }
        let result = f(&mut self.current[self.offset..]);
        let remainder = self.current.len() - self.offset;
        self.bytes_delivered += remainder as u64;
        self.telemetry.bytes_delivered(remainder);
        self.offset = self.current.len();
        Ok(result)
    }

    /// Buffers a chunk if one is ready, without blocking. `Ok(true)`
    /// when bytes are available to read, `Ok(false)` when the next
    /// shard has not produced yet. Latches any failure it consumes.
    pub(crate) fn try_buffer(&mut self) -> Result<bool, Error> {
        if let Some(error) = self.failed {
            return Err(error);
        }
        if self.offset < self.current.len() {
            return Ok(true);
        }
        let shard = self.cursor;
        let depth = self.links[shard].data.len();
        let error = match self.links[shard].data.try_pop() {
            Ok(Ok(chunk)) => {
                self.telemetry.chunk_merged(shard, chunk.len(), depth);
                self.recycle_current();
                self.current = chunk;
                self.current_shard = shard;
                self.cursor = (self.cursor + 1) % self.links.len();
                return Ok(true);
            }
            Err(TryPopError::Empty) => return Ok(false),
            Ok(Err(error)) => error,
            Err(TryPopError::Disconnected) => Error::ShardDisconnected { shard },
        };
        // Latch: this path may consume the shard's one obituary message,
        // so later reads must keep reporting the true cause.
        self.failed = Some(error);
        Err(error)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Hang up both directions first: workers blocked pushing a
        // chunk observe the data-ring hangup; workers blocked waiting
        // for a pool buffer observe the return-ring hangup (the ring
        // `Drop` impls set the alive flags and wake parked peers).
        // Then reap the threads.
        self.links.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
