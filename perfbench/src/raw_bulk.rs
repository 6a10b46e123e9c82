//! `raw-bulk`: one thread, one raw-tier session on a 2-shard source
//! (default kernel, 64 KiB chunking), reading one merge round (128 KiB)
//! at a time.
//!
//! Generation, the health gate, the ring hand-off and the merge do
//! almost all the work; conditioning, DRBG, the arbiter and the wire do
//! none. The delivered stream is checked against a single-threaded
//! replay built from public calls only, which also yields the
//! `trng`/`health`/`exec` spans.

use std::time::Instant;

use dhtrng_stream::{EntropySource, Session, Tier};

use crate::inputs::{Inputs, RAW_READ_BYTES};
use crate::layers::{layer_metrics, LayerContext};
use crate::replay::{self, digest, RawReplay};
use crate::report::{end_to_end, time_set_ups, Outcome, Phase, RunConfig, Slicer, Window};

const SHARDS: usize = 2;

fn build(inputs: &Inputs) -> EntropySource {
    EntropySource::builder()
        .shards(SHARDS)
        .seed(inputs.source_seed)
        .build()
        .expect("valid raw-bulk configuration")
}

/// What the live stream looked like, for the reference check.
struct Delivered {
    digests: Vec<u64>,
    first: Vec<u8>,
    last: Vec<u8>,
}

/// Builds the source and session and reads the first merge round.
fn open(inputs: &Inputs) -> (EntropySource, Session, Vec<u8>) {
    let source = build(inputs);
    let mut session = source.session(Tier::Raw);
    let mut buf = vec![0u8; RAW_READ_BYTES];
    session
        .read(&mut buf)
        .expect("a fresh source delivers its first read");
    (source, session, buf)
}

pub fn run(inputs: &Inputs, run: &RunConfig) -> Outcome {
    let (source, mut session, mut buf) = open(inputs);
    let mut delivered = Delivered {
        digests: vec![digest(&buf)],
        first: buf.clone(),
        last: Vec::new(),
    };

    let before = source.stats();
    let mut failed = 0;
    let mut phases = Vec::new();
    let mut spans = Vec::new();
    for (seconds, traced) in run.phases() {
        let mut tracer = run.tracer(0, traced);
        let (phase, errors) = timed(&mut session, &mut buf, seconds, &mut tracer, &mut delivered);
        failed += errors;
        phases.push(phase);
        spans.extend(tracer.into_spans());
        if errors > 0 {
            break;
        }
    }
    let after = source.stats();
    delivered.last = buf;
    // Stop the workers before the replay so it runs uncontended.
    drop(session);
    drop(source);

    let mut tracer = run.replay_tracer(1);
    let mismatches = check_reference(inputs, &delivered, &mut tracer);
    let attempted = delivered.digests.len() as u64 + failed;
    let mut outcome = Outcome {
        attempted,
        failed: failed + mismatches,
        checks: vec![("reference_stream", mismatches == 0)],
        metrics: Vec::new(),
        spans: Vec::new(),
    };
    if run.traced {
        let ring_handoff_ns = replay::side_measurements(&mut tracer);
        spans.extend(tracer.into_spans());
        if let [untraced, traced] = &phases[..] {
            outcome.metrics = layer_metrics(&LayerContext {
                spans: &spans,
                before: &before,
                after: &after,
                untraced,
                traced,
                ring_handoff_ns,
                seed_bytes: 0,
            });
        }
        outcome.spans = spans;
    } else {
        let setup_s = time_set_ups(|| open(inputs));
        outcome.metrics = end_to_end(&setup_s, &phases[0]);
    }
    outcome
}

/// One closed-loop window of raw reads. Returns the phase and
/// the number of failed reads (a raw-tier error is terminal).
fn timed(
    session: &mut Session,
    buf: &mut [u8],
    seconds: f64,
    tracer: &mut crate::trace::Tracer,
    delivered: &mut Delivered,
) -> (Phase, u64) {
    let mut bytes = 0;
    let mut errors = 0;
    let mut seq = 0;
    let window = Window::open();
    let deadline = window.deadline(seconds);
    // One slice: a run holds about a thousand reads, too few to cut.
    let mut slicer = Slicer::new(window.start(), seconds, seconds);
    while Instant::now() < deadline {
        let start = Instant::now();
        let result = session.read(buf);
        let end = Instant::now();
        slicer.record(end, end - start, buf.len() as u64);
        if tracer.sampled(seq) {
            tracer.span(0, seq, "api.raw_read", start, end);
        }
        seq += 1;
        if result.is_err() {
            errors += 1;
            break;
        }
        delivered.digests.push(digest(buf));
        bytes += buf.len() as u64;
    }
    let phase = Phase {
        slices: slicer.finish(Instant::now()),
        window: window.close(),
        bytes,
        ops: seq,
    };
    (phase, errors)
}

/// Replays the delivered stream single-threaded and compares it read by
/// read (digests; the first and last reads byte for byte). Returns the
/// number of mismatching reads.
fn check_reference(
    inputs: &Inputs,
    delivered: &Delivered,
    tracer: &mut crate::trace::Tracer,
) -> u64 {
    let root = tracer.reserve();
    let start = Instant::now();
    let mut replay = RawReplay::new(inputs.source_seed, SHARDS);
    let mut expect = vec![0u8; RAW_READ_BYTES];
    let last = delivered.digests.len() - 1;
    let mut mismatches = 0;
    for (index, &want) in delivered.digests.iter().enumerate() {
        let seq = index as u64;
        replay.read(&mut expect, tracer, root, seq);
        let ok = tracer.time(root, seq, "check.digest", || {
            digest(&expect) == want
                && (index != 0 || expect == delivered.first)
                && (index != last || expect == delivered.last)
        });
        if !ok || replay.retired {
            mismatches += 1;
        }
    }
    tracer.record(root, 0, 0, "replay", start, Instant::now());
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    /// Digest of the first `reads` raw-bulk reads of the live stream.
    fn live_prefix_digest(inputs: &Inputs, reads: usize) -> u64 {
        let source = build(inputs);
        let mut session = source.session(Tier::Raw);
        let mut prefix = vec![0u8; reads * RAW_READ_BYTES];
        session.read(&mut prefix).expect("healthy");
        digest(&prefix)
    }

    #[test]
    fn raw_bulk_prefix_is_a_function_of_the_seed() {
        let a = live_prefix_digest(&Inputs::from_seed(1), 2);
        assert_eq!(a, live_prefix_digest(&Inputs::from_seed(1), 2));
        assert_ne!(a, live_prefix_digest(&Inputs::from_seed(2), 2));
    }

    #[test]
    fn reference_check_accepts_the_live_stream_and_rejects_a_flipped_bit() {
        let inputs = Inputs::from_seed(3);
        let source = build(&inputs);
        let mut session = source.session(Tier::Raw);
        let mut buf = vec![0u8; RAW_READ_BYTES];
        let mut delivered = Delivered {
            digests: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
        };
        for _ in 0..3 {
            session.read(&mut buf).expect("healthy");
            delivered.digests.push(digest(&buf));
            if delivered.first.is_empty() {
                delivered.first = buf.clone();
            }
        }
        delivered.last = buf;
        assert_eq!(check_reference(&inputs, &delivered, &mut Tracer::off()), 0);
        delivered.last[17] ^= 0x10;
        assert_eq!(check_reference(&inputs, &delivered, &mut Tracer::off()), 1);
    }
}
