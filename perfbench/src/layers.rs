//! Per-layer metrics, derived from a traced run's span list and the
//! telemetry deltas across its timed window. A layer that does no work
//! on a workload reports 0.

use std::collections::HashMap;

use dhtrng_stream::SourceStats;

use crate::inputs::RAW_READ_BYTES;
use crate::measure::band_quantile;
use crate::replay::CHUNK_BYTES;
use crate::report::{ratio, Metric, Phase};
use crate::trace::{durations, total_ns, unattributed_share, Span};

const MIB: f64 = 1024.0 * 1024.0;
const CHUNK_BITS: f64 = CHUNK_BYTES as f64 * 8.0;

/// Inputs to the per-layer derivation.
pub struct LayerContext<'a> {
    /// Live and replay spans of the run.
    pub spans: &'a [Span],
    /// Source counters before the first and after the last phase.
    pub before: &'a SourceStats,
    pub after: &'a SourceStats,
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    /// `ring::spsc` hand-off, ns.
    pub ring_handoff_ns: f64,
    /// Seed bytes per DRBG harvest.
    pub seed_bytes: usize,
}

/// Smoothed median duration (ns) of every span called `name`.
fn median_of(spans: &[Span], name: &str) -> f64 {
    median(durations(spans, name))
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    band_quantile(&values, 0.5)
}

fn mean_of(spans: &[Span], name: &str) -> f64 {
    let d = durations(spans, name);
    ratio(d.iter().sum(), d.len() as f64)
}

/// ns per bit over every `name` span, each covering one chunk.
fn per_chunk_bit(spans: &[Span], name: &str) -> f64 {
    let count = durations(spans, name).len() as f64;
    ratio(total_ns(spans, name), count * CHUNK_BITS)
}

/// Median over requests that have both spans of `a − b`.
fn paired_difference(spans: &[Span], a: &str, b: &str) -> f64 {
    let firsts: HashMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == a)
        .map(|s| (s.request, s.ns()))
        .collect();
    let diffs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == b)
        .filter_map(|s| firsts.get(&s.request).map(|first| first - s.ns()))
        .collect();
    median(diffs)
}

pub fn layer_metrics(ctx: &LayerContext<'_>) -> Vec<Metric> {
    let spans = ctx.spans;
    let (t0, t1) = (&ctx.before.telemetry, &ctx.after.telemetry);
    let delivered_mib = (ctx.untraced.bytes + ctx.traced.bytes) as f64 / MIB;
    let chunks_merged = (t1.chunks_merged - t0.chunks_merged) as f64;
    let verdicts =
        (t1.health_passes - t0.health_passes) + (t1.health_failures - t0.health_failures);

    let trng_ns_per_bit = per_chunk_bit(spans, "trng.fill_bytes");
    let health_ns_per_bit = per_chunk_bit(spans, "health.gate");
    let merge_copy_ns = mean_of(spans, "exec.merge_copy");
    // Single-threaded replay rate of the raw data path; only raw-bulk
    // replays the stream it delivered.
    let raw_reads = durations(spans, "api.raw_read");
    let replay_mbps = ratio(
        CHUNK_BITS * 1e3,
        (trng_ns_per_bit + health_ns_per_bit) * CHUNK_BITS + merge_copy_ns,
    );
    let conditioning_ratio = ratio(
        (ctx.after.consumed_bits - ctx.before.consumed_bits) as f64,
        (ctx.after.emitted_bits - ctx.before.emitted_bits) as f64,
    );
    let conditioning_ns_per_raw_bit = per_chunk_bit(spans, "conditioning.process");
    let reseed_ns = median_of(spans, "drbg.reseed");
    let harvest_ns = median_of(spans, "api.harvest_read");
    // Conditioning happens a chunk at a time inside the harvest that
    // finds the seed carry empty, so compare means: the mean harvest
    // carries its amortised share of that work.
    let harvest_mean_ns = mean_of(spans, "api.harvest_read");
    let harvest_work_ns =
        conditioning_ns_per_raw_bit * ctx.seed_bytes as f64 * 8.0 * conditioning_ratio + reseed_ns;

    let m = |name, value, unit, note: &str| Metric::new(name, value, unit, note.to_string());
    vec![
        m(
            "trng.ns_per_bit",
            trng_ns_per_bit,
            "ns/bit",
            "replayed DhTrng::fill_bytes",
        ),
        m(
            "trng.chunks_per_mib",
            ratio(
                (t1.chunks_produced - t0.chunks_produced) as f64,
                delivered_mib,
            ),
            "1/MiB",
            "chunks produced per MiB delivered",
        ),
        m(
            "health.ns_per_bit",
            health_ns_per_bit,
            "ns/bit",
            "replayed HealthMonitor::feed",
        ),
        m(
            "health.pass_ratio",
            ratio(
                (t1.health_passes - t0.health_passes) as f64,
                verdicts as f64,
            ),
            "ratio",
            "passes per verdict",
        ),
        m(
            "health.restarts",
            (t1.restarts - t0.restarts) as f64,
            "count",
            "in the window",
        ),
        m(
            "ring.handoff_ns",
            ctx.ring_handoff_ns,
            "ns",
            "spsc round trip / 2",
        ),
        m(
            "ring.parks_per_chunk",
            ratio((t1.ring_parks - t0.ring_parks) as f64, chunks_merged),
            "1/chunk",
            "per chunk merged",
        ),
        m(
            "ring.wakes_per_chunk",
            ratio((t1.ring_wakes - t0.ring_wakes) as f64, chunks_merged),
            "1/chunk",
            "per chunk merged",
        ),
        m(
            "exec.wait_ns_per_chunk",
            if raw_reads.is_empty() {
                0.0
            } else {
                let chunks_per_read = (RAW_READ_BYTES / CHUNK_BYTES) as f64;
                (mean_of(spans, "api.raw_read") / chunks_per_read - merge_copy_ns).max(0.0)
            },
            "ns",
            "raw read span minus replayed copy",
        ),
        m(
            "exec.queue_high_water",
            t1.queue_high_water as f64,
            "count",
            "deepest shard queue seen",
        ),
        m(
            "exec.parallel_speedup",
            if raw_reads.is_empty() {
                0.0
            } else {
                ratio(ctx.untraced.mbps(), replay_mbps)
            },
            "x",
            "live Mbps / single-threaded replay Mbps",
        ),
        m(
            "conditioning.ns_per_raw_bit",
            conditioning_ns_per_raw_bit,
            "ns/bit",
            "replayed ConditionerStage::process, CRC ratio 2",
        ),
        m(
            "conditioning.ratio",
            conditioning_ratio,
            "ratio",
            "consumed / emitted bits",
        ),
        m(
            "conditioning.build_us",
            median_of(spans, "conditioning.build") / 1e3,
            "us",
            "CrcWhitener::new(2)",
        ),
        m(
            "drbg.ns_per_block",
            median_of(spans, "drbg.generate"),
            "ns",
            "HashDrbg::generate, 64 B",
        ),
        m("drbg.reseed_ns", reseed_ns, "ns", "HashDrbg::reseed"),
        m(
            "drbg.reseeds_per_mib",
            ratio(
                (t1.reseeds_granted - t0.reseeds_granted) as f64,
                delivered_mib,
            ),
            "1/MiB",
            "reseeds granted per MiB delivered",
        ),
        m(
            "api.read_ns",
            median_of(spans, "api.read"),
            "ns",
            "drbg Session::read without a harvest",
        ),
        m(
            "api.harvest_read_us",
            harvest_ns / 1e3,
            "us",
            "drbg Session::read that harvested",
        ),
        m(
            "api.harvest_wait_share",
            if harvest_mean_ns > 0.0 {
                ((harvest_mean_ns - harvest_work_ns) / harvest_mean_ns).max(0.0)
            } else {
                0.0
            },
            "ratio",
            "lock, arbiter and generation wait share of a harvest read",
        ),
        m(
            "api.conditioned_read_us",
            median_of(spans, "api.conditioned_read") / 1e3,
            "us",
            "conditioned Session::read, 4 KiB",
        ),
        m(
            "api.rollbacks",
            (t1.rollbacks - t0.rollbacks) as f64,
            "count",
            "in the window",
        ),
        m(
            "api.stalled_reseeds",
            (ctx.after.stalled_reseeds - ctx.before.stalled_reseeds) as f64,
            "count",
            "in the window",
        ),
        m(
            "proto.encode_ns",
            median_of(spans, "proto.encode"),
            "ns",
            "Request::encode",
        ),
        m(
            "proto.decode_ns",
            median_of(spans, "proto.decode"),
            "ns",
            "Response::decode",
        ),
        m(
            "service.handle_frame_ns",
            median_of(spans, "service.handle_frame"),
            "ns",
            "Connection::handle_frame without a harvest",
        ),
        m(
            "service.self_ns",
            paired_difference(spans, "service.handle_frame", "api.read"),
            "ns",
            "handle_frame minus a same-size twin Session::read",
        ),
        m(
            "alloc.per_read",
            ratio(
                ctx.untraced.window.allocations as f64,
                ctx.untraced.ops as f64,
            ),
            "1/read",
            "untraced half",
        ),
        m(
            "trace.overhead",
            ratio(ctx.traced.mbps(), ctx.untraced.mbps()),
            "ratio",
            "traced / untraced delivered_mbps",
        ),
        m(
            "trace.unattributed_share",
            unattributed_share(spans, "replay"),
            "ratio",
            "replay wall-clock outside layer spans",
        ),
    ]
}
