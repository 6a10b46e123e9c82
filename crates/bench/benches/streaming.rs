//! Streaming-engine microbenchmarks: simulated bytes per second of the
//! sharded [`EntropyStream`] at different shard counts, against the
//! single-instance batched path it is built from, plus the three
//! output tiers (`raw` / `conditioned` / `drbg`) of the SP 800-90C
//! pipeline mounted on a 4-shard deployment: the raw tier reads the
//! engine itself, the other two a sole session over a shared source.
//!
//! Wall-clock scaling across shards depends on available cores (the
//! modeled hardware throughput always scales linearly — one sampling
//! clock per instance); `bench_report` records both views in
//! `BENCH_4.json`, alongside the per-tier post-conditioning rates.

use criterion::measurement::WallTime;
use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use dhtrng_core::{DhTrng, Trng};
use dhtrng_stream::{EntropySource, EntropyStream, Tier};

const READ_BYTES: usize = 1 << 18; // 256 KiB per iteration

fn bench_stream(group: &mut BenchmarkGroup<'_, WallTime>, shards: usize) {
    let mut stream = EntropyStream::builder()
        .shards(shards)
        .seed(1)
        .chunk_bytes(64 * 1024)
        .build();
    let mut buf = vec![0u8; READ_BYTES];
    group.bench_function(BenchmarkId::new("stream", format!("{shards}-shard")), |b| {
        b.iter(|| {
            stream.read(&mut buf).expect("healthy stream");
            black_box(buf[0])
        })
    });
}

fn streaming_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.throughput(Throughput::Bytes(READ_BYTES as u64));

    // Baseline: one instance, batched fill, no threads.
    let mut single = DhTrng::builder().seed(1).build();
    let mut buf = vec![0u8; READ_BYTES];
    group.bench_function(BenchmarkId::from_parameter("single-instance-fill"), |b| {
        b.iter(|| {
            single.fill_bytes(&mut buf);
            black_box(buf[0])
        })
    });

    for shards in [1, 2, 4] {
        bench_stream(&mut group, shards);
    }
    group.finish();
}

/// Post-conditioning throughput per output tier (4 shards, stage
/// defaults: 2:1 CRC conditioning, 1 Mbit DRBG reseed interval). The
/// conditioned tier consumes `ratio` raw bytes per output byte, so its
/// rate is expected to sit near half the raw tier's; the drbg tier
/// regenerates from DRBG state and is bounded by `NoiseRng` block
/// generation instead.
fn pipeline_tier_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    // A smaller read than the raw-stream bench: the conditioned tier
    // pays the compression ratio in wall-clock.
    const TIER_BYTES: usize = 1 << 16; // 64 KiB per iteration
    group.throughput(Throughput::Bytes(TIER_BYTES as u64));
    let mut buf = vec![0u8; TIER_BYTES];
    let mut raw = EntropyStream::builder()
        .shards(4)
        .seed(1)
        .chunk_bytes(64 * 1024)
        .build();
    group.bench_function(BenchmarkId::new("tier", "raw"), |b| {
        b.iter(|| {
            raw.read(&mut buf).expect("healthy stream");
            black_box(buf[0])
        })
    });
    for (tier, name) in [(Tier::Conditioned, "conditioned"), (Tier::Drbg, "drbg")] {
        let mut session = EntropySource::builder()
            .shards(4)
            .seed(1)
            .chunk_bytes(64 * 1024)
            .build()
            .expect("valid source")
            .session(tier);
        group.bench_function(BenchmarkId::new("tier", name), |b| {
            b.iter(|| {
                session.read(&mut buf).expect("healthy session");
                black_box(buf[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, streaming_benches, pipeline_tier_benches);
criterion_main!(benches);
