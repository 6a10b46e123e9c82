//! Lock-free single-producer/single-consumer ring — the worker→merger
//! chunk hand-off.
//!
//! Before this module, every chunk crossed a `std::sync::mpsc` bounded
//! channel (a `Mutex` + `Condvar` under the hood) twice per lap: once
//! from the shard worker to the merge loop, once back through the pool
//! return channel. This ring replaces both directions with a
//! fixed-capacity power-of-two slot array and two `AtomicUsize`
//! cursors:
//!
//! * the **producer** owns `tail`: it writes a slot, then publishes it
//!   with a `Release` store of `tail + 1`;
//! * the **consumer** owns `head`: it observes published slots with an
//!   `Acquire` load of `tail`, takes the value, then frees the slot
//!   with a `Release` store of `head + 1`;
//! * both cursors are **cache-line padded** so the producer's `tail`
//!   line never false-shares with the consumer's `head` line;
//! * the hand-off is **allocation-free**: slots are pre-built at
//!   construction and values (the engine's recycled pool buffers) move
//!   in and out of them by `Option::take` — nothing is boxed, queued
//!   nodes are never allocated.
//!
//! Because there is exactly one producer and one consumer, `Acquire`/
//! `Release` on the two cursors is the entire synchronisation story
//! for the data path (`DESIGN.md` §10 spells the argument out). The
//! *waiting* story — a consumer blocking on an empty ring, a producer
//! on a full one — runs over the spin → yield → park ladder in
//! the private `wake` module: an idle merge loop is parked, and costs
//! the producer one uncontended load per push to leave parked.
//!
//! Shard retirement stays **in-band**: the engine's rings carry
//! `Result<Vec<u8>, `[`Error`](crate::Error)`>` messages, so a
//! retiring shard's obituary occupies a tagged slot in its queue
//! position and surfaces exactly at the retired shard's round-robin
//! turn — the merged-prefix contract is unchanged from the channel
//! era. Hang-up detection is two `AtomicBool`s: dropping either handle
//! wakes and un-blocks the other side ([`Consumer::pop`] drains
//! residual slots before reporting the disconnect, exactly like
//! `mpsc`).
//!
//! The module is public so the bench harness can measure the hand-off
//! against its `mpsc` baseline (`handoff` criterion group,
//! `scaling.handoff_ns_per_chunk` in the bench report), and so the
//! property/stress suites in `tests/ring_props.rs` can drive it
//! directly; the engine consumes it through `pub(crate)` wiring.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::wake::{Backoff, WakeToken};

/// Pads (and aligns) a value to its own 64-byte cache line, so the
/// producer-owned and consumer-owned cursors never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// The state both handles share.
struct Shared<T> {
    /// `capacity - 1`; the capacity is a power of two, so this masks a
    /// monotonically increasing cursor down to a slot index.
    mask: usize,
    /// Slot storage, length `capacity`, pre-built at construction.
    slots: Box<[UnsafeCell<Option<T>>]>,
    /// Consumer cursor: slots `< head` have been drained.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: slots `< tail` have been published.
    tail: CachePadded<AtomicUsize>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    /// The consumer parks here when the ring is empty.
    data_ready: WakeToken,
    /// The producer parks here when the ring is full.
    space_ready: WakeToken,
    /// Telemetry: how many times either side actually parked. Shared
    /// `Arc`s so the engine can pool every ring's tally into one
    /// stream-wide counter (see `telemetry::Telemetry`).
    parks: Arc<AtomicU64>,
    /// Telemetry: how many notifies actually claimed a registered
    /// waiter. Not bounded by `parks`: a notify can catch a waiter
    /// between `prepare` and `cancel`, before it ever parked.
    wakes: Arc<AtomicU64>,
}

// SAFETY: the ring moves `T` values across threads (producer writes a
// slot, consumer takes from it), so `T: Send` is required and
// sufficient. The `UnsafeCell` slots are never accessed concurrently:
// the producer only touches slots in `[head + capacity, tail]` --
// wait-free disjoint from the consumer's `[head, tail)` window -- see
// the safety comments at the two access sites.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for Shared<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Shared<T> {}

/// Why a [`Producer::try_push`] did not take the value.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// Every slot is occupied; the value is handed back.
    Full(T),
    /// The consumer is gone; the value is handed back and no push can
    /// ever succeed again.
    Disconnected(T),
}

/// Why a [`Consumer::try_pop`] returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPopError {
    /// No published slot right now (the producer is still alive).
    Empty,
    /// The ring is empty **and** the producer is gone: the stream has
    /// ended. Residual values are always drained before this is
    /// reported.
    Disconnected,
}

/// The sending half: exactly one exists per ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half: exactly one exists per ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Producer")
            .field("capacity", &(self.shared.mask + 1))
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Consumer")
            .field("capacity", &(self.shared.mask + 1))
            .finish_non_exhaustive()
    }
}

/// Builds a ring with at least `capacity` slots (rounded up to the
/// next power of two) and returns its two handles.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    spsc_with_wait_counters(
        capacity,
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicU64::new(0)),
    )
}

/// [`spsc`], with the park/wake telemetry counters supplied by the
/// caller instead of freshly allocated — the engine hands every ring
/// the same pair so the stream-wide `Snapshot` pools them. `parks`
/// counts threads that actually parked (either side); `wakes` counts
/// notifies that claimed a registered waiter.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn spsc_with_wait_counters<T>(
    capacity: usize,
    parks: Arc<AtomicU64>,
    wakes: Arc<AtomicU64>,
) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let capacity = capacity.next_power_of_two();
    let slots: Box<[UnsafeCell<Option<T>>]> =
        (0..capacity).map(|_| UnsafeCell::new(None)).collect();
    let shared = Arc::new(Shared {
        mask: capacity - 1,
        slots,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        data_ready: WakeToken::new(),
        space_ready: WakeToken::new(),
        parks,
        wakes,
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

impl<T> Shared<T> {
    /// Counts a notify that actually woke a registered waiter.
    fn count_notify(&self, woke: bool) {
        if woke {
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<T> Producer<T> {
    /// Slots in the ring (the rounded-up capacity).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Times either side of this ring (or any ring sharing the counter)
    /// actually parked its thread.
    pub fn parks(&self) -> u64 {
        self.shared.parks.load(Ordering::Relaxed)
    }

    /// Notifies that actually claimed a registered waiter.
    pub fn wakes(&self) -> u64 {
        self.shared.wakes.load(Ordering::Relaxed)
    }

    /// Pushes without blocking, handing the value back when the ring
    /// is full or the consumer is gone.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] / [`TryPushError::Disconnected`], both
    /// carrying `value` back.
    pub fn try_push(&mut self, value: T) -> Result<(), TryPushError<T>> {
        if !self.shared.consumer_alive.load(Ordering::Acquire) {
            return Err(TryPushError::Disconnected(value));
        }
        // Only this handle writes `tail`, so a relaxed self-read is
        // exact; `head` needs Acquire so the consumer's slot release
        // (the `take`) happens-before our overwrite of that slot.
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        let head = self.shared.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.shared.mask {
            return Err(TryPushError::Full(value));
        }
        // SAFETY: single producer -- only this thread writes slots at
        // `tail`, and the occupancy check above proved the consumer
        // has drained this slot (its cursor moved past it at least
        // `capacity` slots ago, published by the Acquire load of
        // `head`). No other access can overlap until the Release store
        // below publishes the slot.
        #[allow(unsafe_code)]
        unsafe {
            *self.shared.slots[tail & self.shared.mask].get() = Some(value);
        }
        self.shared
            .tail
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        let woke = self.shared.data_ready.notify();
        self.shared.count_notify(woke);
        Ok(())
    }

    /// Pushes, blocking (spin → yield → park) while the ring is full.
    ///
    /// # Errors
    ///
    /// Hands `value` back if the consumer is gone.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let mut value = value;
        let mut backoff = Backoff::new();
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Disconnected(v)) => return Err(v),
                Err(TryPushError::Full(v)) => value = v,
            }
            if backoff.snooze() {
                self.shared.space_ready.prepare();
                // Re-check after registering: a pop (or the consumer's
                // death) in the window since try_push must not strand
                // us parked -- see the WakeToken protocol.
                let tail = self.shared.tail.0.load(Ordering::Relaxed);
                let head = self.shared.head.0.load(Ordering::Acquire);
                if tail.wrapping_sub(head) <= self.shared.mask
                    || !self.shared.consumer_alive.load(Ordering::Acquire)
                {
                    self.shared.space_ready.cancel();
                } else {
                    self.shared.parks.fetch_add(1, Ordering::Relaxed);
                    self.shared.space_ready.park();
                }
                backoff.wound();
            }
        }
    }
}

impl<T> Consumer<T> {
    /// Slots in the ring (the rounded-up capacity).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Published slots currently waiting to be popped. Exact from the
    /// consumer side (only it moves `head`); the producer may publish
    /// more concurrently, so this is a floor, not a promise.
    pub fn len(&self) -> usize {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let tail = self.shared.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times either side of this ring (or any ring sharing the counter)
    /// actually parked its thread.
    pub fn parks(&self) -> u64 {
        self.shared.parks.load(Ordering::Relaxed)
    }

    /// Notifies that actually claimed a registered waiter.
    pub fn wakes(&self) -> u64 {
        self.shared.wakes.load(Ordering::Relaxed)
    }

    /// Pops without blocking.
    ///
    /// # Errors
    ///
    /// [`TryPopError::Empty`] when no slot is published yet;
    /// [`TryPopError::Disconnected`] when the ring is drained and the
    /// producer is gone.
    pub fn try_pop(&mut self) -> Result<T, TryPopError> {
        // Only this handle writes `head`, so a relaxed self-read is
        // exact; `tail` needs Acquire so the producer's slot write
        // happens-before our read of it.
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let mut tail = self.shared.tail.0.load(Ordering::Acquire);
        if head == tail {
            if self.shared.producer_alive.load(Ordering::Acquire) {
                return Err(TryPopError::Empty);
            }
            // The producer may have pushed its final value(s) between
            // our `tail` load and its death flag: re-read so the last
            // message (often a shard's obituary) is never dropped.
            tail = self.shared.tail.0.load(Ordering::Acquire);
            if head == tail {
                return Err(TryPopError::Disconnected);
            }
        }
        // SAFETY: single consumer -- only this thread takes from slots
        // at `head`, and `head < tail` with the Acquire load above
        // proves the producer published this slot and will not touch
        // it again until our Release store of `head + 1` frees it.
        #[allow(unsafe_code)]
        let value = unsafe { (*self.shared.slots[head & self.shared.mask].get()).take() }
            .expect("SPSC invariant: published slot holds a value");
        self.shared
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        let woke = self.shared.space_ready.notify();
        self.shared.count_notify(woke);
        Ok(value)
    }

    /// Pops, blocking (spin → yield → park) while the ring is empty.
    ///
    /// # Errors
    ///
    /// Errors only when the ring is drained **and** the producer is
    /// gone.
    pub fn pop(&mut self) -> Result<T, TryPopError> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_pop() {
                Ok(value) => return Ok(value),
                Err(TryPopError::Disconnected) => return Err(TryPopError::Disconnected),
                Err(TryPopError::Empty) => {}
            }
            if backoff.snooze() {
                self.shared.data_ready.prepare();
                // Re-check after registering (mirrors `push`).
                let head = self.shared.head.0.load(Ordering::Relaxed);
                if self.shared.tail.0.load(Ordering::Acquire) != head
                    || !self.shared.producer_alive.load(Ordering::Acquire)
                {
                    self.shared.data_ready.cancel();
                } else {
                    self.shared.parks.fetch_add(1, Ordering::Relaxed);
                    self.shared.data_ready.park();
                }
                backoff.wound();
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_alive.store(false, Ordering::Release);
        // A parked consumer must observe the hang-up.
        let woke = self.shared.data_ready.notify();
        self.shared.count_notify(woke);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
        // A parked producer must observe the hang-up.
        let woke = self.shared.space_ready.notify();
        self.shared.count_notify(woke);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let (tx, rx) = spsc::<u32>(3);
        assert_eq!(tx.capacity(), 4);
        assert_eq!(rx.capacity(), 4);
        let (tx, _rx) = spsc::<u32>(1);
        assert_eq!(tx.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = spsc::<u32>(0);
    }

    #[test]
    fn fifo_order_and_fullness() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(rx.try_pop(), Ok(1));
        tx.try_push(3).unwrap();
        assert_eq!(rx.try_pop(), Ok(2));
        assert_eq!(rx.try_pop(), Ok(3));
        assert_eq!(rx.try_pop(), Err(TryPopError::Empty));
    }

    #[test]
    fn consumer_drains_residue_before_reporting_disconnect() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        tx.try_push(7).unwrap();
        tx.try_push(8).unwrap();
        drop(tx);
        assert_eq!(rx.try_pop(), Ok(7));
        assert_eq!(rx.pop(), Ok(8));
        assert_eq!(rx.try_pop(), Err(TryPopError::Disconnected));
        assert_eq!(rx.pop(), Err(TryPopError::Disconnected));
    }

    #[test]
    fn producer_observes_consumer_hangup() {
        let (mut tx, rx) = spsc::<u32>(1);
        tx.try_push(1).unwrap();
        drop(rx);
        assert_eq!(tx.push(2), Err(2));
        assert_eq!(tx.try_push(3), Err(TryPushError::Disconnected(3)));
    }

    #[test]
    fn blocking_round_trip_across_threads() {
        // A capacity-1 data ring forces maximal blocking on both sides.
        let (mut data_tx, mut data_rx) = spsc::<Vec<u8>>(1);
        let (mut pool_tx, mut pool_rx) = spsc::<Vec<u8>>(4);
        for _ in 0..2 {
            pool_tx.push(vec![0u8; 8]).unwrap();
        }
        let producer = std::thread::spawn(move || {
            let mut sent = 0u64;
            while let Ok(mut buffer) = pool_rx.pop() {
                buffer[..8].copy_from_slice(&sent.to_le_bytes());
                if data_tx.push(buffer).is_err() {
                    break;
                }
                sent += 1;
            }
            sent
        });
        for expect in 0..10_000u64 {
            let buffer = data_rx.pop().expect("producer alive");
            assert_eq!(u64::from_le_bytes(buffer[..8].try_into().unwrap()), expect);
            pool_tx.push(buffer).expect("producer alive");
        }
        drop(data_rx);
        drop(pool_tx);
        let sent = producer.join().expect("producer exits");
        assert!(sent >= 10_000);
    }
}
