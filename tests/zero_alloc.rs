//! Pins the executor's zero-allocation guarantee: once the buffer pool
//! is primed, the raw-tier read path (consumer *and* shard workers)
//! performs no heap allocation at all.
//!
//! The whole test binary runs under a counting global allocator, so
//! the assertion covers every thread — a worker that silently
//! allocated per chunk (the pre-executor design) fails here. This is
//! the test-side twin of the `allocation` metric in `BENCH_4.json`.
//! The service's drbg `Read` frame is pinned too, at exactly one
//! allocation: its reply.
//!
//! Because the count is process-wide, the tests must not overlap: one
//! test's setup would land in another's measured window. Each test body
//! holds [`SERIAL`] from start to finish. The harness still does its
//! own bookkeeping on its main thread when a test ends, just as the
//! next one starts: the stream tests prime their pools for long enough
//! to cover it, and the single-threaded adaptor and frame tests count
//! only their own thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dh_trng::prelude::*;

/// `System`, plus a global and a per-thread count of allocation events
/// (alloc, alloc_zeroed, and realloc all count; frees don't).
///
/// Deliberately duplicated in `crates/bench/src/bin/bench_report.rs`
/// (which reports the same invariant as the `BENCH_4.json` allocation
/// metric): a `#[global_allocator]` must live in each final binary,
/// and the shared crates forbid unsafe code. Keep the counting rules
/// of the two copies in sync.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of [`ALLOCATIONS`]. Const-initialised
    /// and drop-free, so reading it never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates every operation verbatim to `System`; the counter
// bumps have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serialises the test bodies (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`] for the rest of the calling test; a test that
/// panicked while holding it leaves nothing behind that matters here.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn raw_tier_steady_state_reads_do_not_allocate() {
    let _serial = serial();
    let shards = 2;
    let queue_chunks = 4;
    let chunk = 4096usize;
    let mut stream = EntropyStream::builder()
        .shards(shards)
        .seed(0xA110C)
        .chunk_bytes(chunk)
        .queue_chunks(queue_chunks)
        .build();
    let mut buf = vec![0u8; chunk];

    // Prime the pool: walk every buffer through the full recycle loop
    // (worker -> queue -> consumer -> return channel -> worker) a few
    // times so one-time costs (initial capacity commit, thread-local
    // lazy init, channel internals) are all paid.
    for _ in 0..shards * (queue_chunks + 2) * 3 {
        stream.read(&mut buf).expect("healthy stream");
    }

    // Steady state: N more full-chunk reads across every shard must
    // not allocate anywhere in the process.
    let reads = shards * (queue_chunks + 2) * 4;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        stream.read(&mut buf).expect("healthy stream");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state raw-tier reads must be allocation-free \
         ({} allocations over {reads} chunk reads)",
        after - before
    );
    assert_eq!(stream.pool_buffers(), shards * (queue_chunks + 2));
    std::hint::black_box(&buf);
}

/// The same pin with the telemetry recorder **enabled**: a bounded
/// [`Tracer`] pre-allocates its ring at construction and evicts in
/// place at capacity, and the stage counters are plain relaxed
/// atomics, so turning observability on must not cost a single
/// allocation on the read path. This is the CI gate behind the
/// "always-on" claim — if instrumentation ever grows a heap
/// dependency (boxing events, formatting on record, growing a
/// buffer), this test fails, not a benchmark.
#[test]
fn raw_tier_steady_state_reads_do_not_allocate_with_recorder_enabled() {
    let _serial = serial();
    let shards = 2;
    let queue_chunks = 4;
    let chunk = 4096usize;
    let tracer = std::sync::Arc::new(Tracer::new(64));
    let mut stream = EntropyStream::builder()
        .shards(shards)
        .seed(0xA110C)
        .chunk_bytes(chunk)
        .queue_chunks(queue_chunks)
        .recorder(std::sync::Arc::clone(&tracer) as std::sync::Arc<dyn Recorder>)
        .build();
    let mut buf = vec![0u8; chunk];

    // Prime as above, and long enough that the tracer ring wraps —
    // steady state must include the eviction path, not just appends.
    for _ in 0..shards * (queue_chunks + 2) * 3 {
        stream.read(&mut buf).expect("healthy stream");
    }

    let reads = shards * (queue_chunks + 2) * 4;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        stream.read(&mut buf).expect("healthy stream");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "recorder-on steady-state reads must stay allocation-free \
         ({} allocations over {reads} chunk reads)",
        after - before
    );
    let snapshot = stream.metrics().snapshot();
    assert!(
        snapshot.chunks_merged > 0,
        "the recorder-on run must actually have counted work"
    );
    assert!(tracer.recorded() > 0, "the tracer must have seen events");
    assert!(
        tracer.dropped() > 0,
        "the run must be long enough to exercise the eviction path"
    );
    std::hint::black_box(&buf);
}

/// Conditioned-tier twin of the raw-tier pin: the block conditioning
/// kernels (table lookups into construction-time tables, stack staging
/// buffers, in-place `BitSink` packing) must keep steady-state
/// conditioned reads allocation-free — the tables are built once in
/// `ConditionerSpec::build`, never on the read path.
#[test]
fn conditioned_tier_steady_state_reads_do_not_allocate() {
    let _serial = serial();
    let mut tier = PipelineBuilder::new()
        .shards(2)
        .seed(0xB10C)
        .chunk_bytes(4096)
        .queue_chunks(4)
        .conditioner(ConditionerSpec::Crc { ratio: 2 })
        .build_conditioned();
    let mut buf = vec![0u8; 4096];

    // Prime: pool commit, session carry growth, conditioner tables.
    for _ in 0..48 {
        tier.read(&mut buf).expect("healthy pipeline");
    }

    let reads = 64;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        tier.read(&mut buf).expect("healthy pipeline");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state conditioned-tier reads must be allocation-free \
         ({} allocations over {reads} reads)",
        after - before
    );
    std::hint::black_box(&buf);
}

/// And the single-instance adaptor: `Conditioned::fill_bytes` now runs
/// the block path through a stack staging chunk — steady-state fills
/// must not allocate either.
#[test]
fn conditioned_adaptor_block_fill_does_not_allocate() {
    let _serial = serial();
    let raw = DhTrng::builder().seed(77).build();
    let mut conditioned = Conditioned::new(raw, CrcWhitener::new(2));
    let mut buf = [0u8; 1024];
    for _ in 0..4 {
        conditioned.fill_bytes(&mut buf);
    }
    // Everything here runs on this thread, so count only its own
    // allocations.
    let before = thread_allocations();
    for _ in 0..32 {
        conditioned.fill_bytes(&mut buf);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "block-path fills must be allocation-free"
    );
    std::hint::black_box(&buf);
}

/// The service's `Read` frame allocates exactly once on the thread that
/// handles it: the `Data` payload, which the session fills in place
/// behind the header. Requests are encoded before the counted window
/// and replies decoded after it, and the reseed interval outlasts the
/// run, so no harvest lands in the window either.
#[test]
fn drbg_read_frames_allocate_only_their_reply() {
    use dh_trng::serve::{Request, Response};

    let _serial = serial();
    let source = EntropySource::builder()
        .shards(2)
        .seed(0xF2A3E)
        .chunk_bytes(4096)
        .drbg_config(DrbgConfig {
            reseed_interval_bits: 1 << 24,
            ..DrbgConfig::default()
        })
        .build()
        .expect("valid source");
    let service = Service::new(source);
    let mut connection = service.connect();
    let hello = Request::Hello {
        tier: Tier::Drbg,
        quota: None,
    };
    assert!(matches!(
        Response::decode(&connection.handle_frame(&hello.encode())),
        Ok(Response::HelloOk { .. })
    ));

    // Key-sized reads, 32–64 B.
    let frames: Vec<(u32, Vec<u8>)> = (0..128u32)
        .map(|i| {
            let n = 32 + (i * 7) % 33;
            (n, Request::Read { n }.encode())
        })
        .collect();
    let (warm_up, counted) = frames.split_at(64);
    for (_, frame) in warm_up {
        connection.handle_frame(frame);
    }

    let session = connection.session().expect("Hello opened a session");
    let (reseeds, mut offset) = (session.reseeds(), session.bytes_delivered());
    let mut replies = Vec::with_capacity(counted.len());
    let before = thread_allocations();
    for (_, frame) in counted {
        replies.push(connection.handle_frame(frame));
    }
    let after = thread_allocations();

    assert_eq!(
        connection.session().map(Session::reseeds),
        Some(reseeds),
        "a reseed harvest landed in the counted window"
    );
    assert_eq!(
        after - before,
        counted.len() as u64,
        "each Read frame must allocate only its reply \
         ({} allocations over {} frames)",
        after - before,
        counted.len()
    );
    for ((n, _), reply) in counted.iter().zip(&replies) {
        match Response::decode(reply) {
            Ok(Response::Data { offset: at, bytes }) => {
                assert_eq!((at, bytes.len()), (offset, *n as usize));
                offset += u64::from(*n);
            }
            other => panic!("expected data, got {other:?}"),
        }
    }
}
