//! Generation-rate microbenchmarks: simulated bits per second of the
//! DH-TRNG behavioural model and every baseline architecture.
//!
//! (The *architectural* throughput — the paper's 620/670 Mbps — comes
//! from the timing model; this bench measures how fast the behavioural
//! simulation itself runs, which bounds experiment runtimes.)

use criterion::measurement::WallTime;
use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use dhtrng_baselines::{
    DualModePufTrng, JitterLatchTrng, LatchedRoTrng, MetastableCmTrng, MultiphaseTrng, TeroTrng,
    TerotTrng,
};
use dhtrng_core::{DhTrng, HybridUnitGroup, Trng};
use std::hint::black_box;

const BITS: usize = 1 << 16;

/// The seed's per-bit path: one virtual `next_bit` per cycle.
fn bench_generator<T: Trng>(group: &mut BenchmarkGroup<'_, WallTime>, name: &str, mut trng: T) {
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..BITS {
                acc ^= u32::from(trng.next_bit());
            }
            black_box(acc)
        })
    });
}

/// The batched path: the same bit stream through `fill_bytes`.
fn bench_batched<T: Trng>(group: &mut BenchmarkGroup<'_, WallTime>, name: &str, mut trng: T) {
    let mut buf = vec![0u8; BITS / 8];
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            trng.fill_bytes(&mut buf);
            black_box(buf[0])
        })
    });
}

fn throughput_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation-rate");
    group.throughput(Throughput::Elements(BITS as u64));

    // Per-bit vs batched on the same generators: the ratio is the
    // acceptance number `bench_report` tracks in BENCH_4.json.
    bench_generator(&mut group, "DH-TRNG", DhTrng::builder().seed(1).build());
    bench_batched(
        &mut group,
        "DH-TRNG-batched",
        DhTrng::builder().seed(1).build(),
    );
    bench_batched(
        &mut group,
        "HybridUnits-x12-batched",
        HybridUnitGroup::hybrid(12, 1),
    );
    bench_generator(
        &mut group,
        "DH-TRNG-no-feedback",
        DhTrng::builder().seed(1).feedback(false).build(),
    );
    bench_generator(
        &mut group,
        "HybridUnits-x12",
        HybridUnitGroup::hybrid(12, 1),
    );
    bench_generator(&mut group, "TERO-FPL20", TeroTrng::new(1));
    bench_generator(&mut group, "LatchedRO-TCASII21", LatchedRoTrng::new(1));
    bench_generator(&mut group, "JitterLatch-TCASI21", JitterLatchTrng::new(1));
    bench_generator(&mut group, "TEROT-TCASI22", TerotTrng::new(1));
    bench_generator(
        &mut group,
        "MetastableCM-TCASII22",
        MetastableCmTrng::new(1),
    );
    bench_generator(&mut group, "DualModePUF-TC23", DualModePufTrng::new(1));
    bench_generator(&mut group, "Multiphase-DAC23", MultiphaseTrng::new(1));
    group.finish();
}

criterion_group!(benches, throughput_benches);
criterion_main!(benches);
