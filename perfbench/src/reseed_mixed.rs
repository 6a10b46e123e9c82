//! `reseed-mixed`: two threads on a 1-shard source. Each holds half of
//! a set of drbg sessions running with prediction resistance (one
//! reseed harvest per 64 B block); thread 0 also streams one
//! conditioned-tier session in 4 KiB reads on a seeded schedule. Drbg
//! reads are 32–64 B.
//!
//! Every drbg block writes shared state under the source lock, through
//! the reseed arbiter and the shared seed carry, and conditioning runs
//! on every byte. The checks: `conditioned_bytes` equals the
//! conditioned session's bytes plus `reseeds_served × seed_bytes`, and
//! every session delivered exactly the sum of its reads.

use std::time::Instant;

use dhtrng_core::drbg::DrbgConfig;
use dhtrng_stream::{EntropySource, Session, Tier};

use crate::inputs::{Inputs, CONDITIONED_READ_BYTES, MIXED_DRBG_SESSIONS};
use crate::layers::{layer_metrics, LayerContext};
use crate::replay;
use crate::report::{
    end_to_end, time_set_ups, Outcome, Phase, RunConfig, Slice, Slicer, Window, SLICE_S,
};
use crate::trace::{Span, Tracer};

const SHARDS: usize = 1;
const THREADS: usize = 2;

/// One load thread's sessions and the bytes each has been given.
struct Lane {
    drbg: Vec<(Session, u64)>,
    /// Thread 0 only.
    conditioned: Option<(Session, u64)>,
}

/// What one thread measured in one phase.
struct Tally {
    slices: Vec<Slice>,
    bytes: u64,
    ops: u64,
    failed: u64,
    spans: Vec<Span>,
}

fn open(inputs: &Inputs) -> (EntropySource, Vec<Lane>) {
    let source = EntropySource::builder()
        .shards(SHARDS)
        .seed(inputs.source_seed)
        .drbg_config(DrbgConfig {
            prediction_resistance: true,
            ..DrbgConfig::default()
        })
        .build()
        .expect("valid reseed-mixed configuration");
    let per_lane = MIXED_DRBG_SESSIONS / THREADS;
    let mut lanes: Vec<Lane> = (0..THREADS)
        .map(|thread| Lane {
            drbg: (0..per_lane)
                .map(|_| {
                    // Instantiate now, as the daemon's Hello does, so
                    // every timed harvest is a reseed.
                    let mut session = source.session(Tier::Drbg);
                    session.prime().expect("a fresh source primes a session");
                    (session, 0)
                })
                .collect(),
            conditioned: (thread == 0).then(|| (source.session(Tier::Conditioned), 0)),
        })
        .collect();
    // The first byte: lane 0's first drbg read.
    let n = inputs.key_size(0);
    let (session, given) = &mut lanes[0].drbg[0];
    session
        .read(&mut vec![0u8; n])
        .expect("a fresh source serves its first drbg read");
    *given += n as u64;
    (source, lanes)
}

pub fn run(inputs: &Inputs, run: &RunConfig) -> Outcome {
    let (source, mut lanes) = open(inputs);

    let before = source.stats();
    let mut failed = 0;
    let mut attempted = 1;
    let mut phases = Vec::new();
    let mut spans = Vec::new();
    for (seconds, traced) in run.phases() {
        let window = Window::open();
        let deadline = window.deadline(seconds);
        let start = window.start();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(thread, lane)| {
                    let tracer = run.tracer(thread as u64, traced);
                    let slicer = Slicer::new(start, seconds, SLICE_S);
                    scope
                        .spawn(move || drive(inputs, thread as u64, lane, deadline, slicer, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let window = window.close();
        let mut threads = Vec::with_capacity(THREADS);
        let (mut bytes, mut ops) = (0, 0);
        for tally in tallies {
            threads.push(tally.slices);
            bytes += tally.bytes;
            ops += tally.ops;
            failed += tally.failed;
            spans.extend(tally.spans);
        }
        attempted += ops;
        phases.push(Phase {
            window,
            bytes,
            ops,
            slices: Slice::merge(&threads),
        });
    }
    let after = source.stats();

    let seed_bytes = source.drbg_config().seed_bytes;
    let conditioned_given = lanes[0].conditioned.as_ref().map_or(0, |(_, given)| *given);
    let identity =
        after.conditioned_bytes == conditioned_given + after.reseeds_served * seed_bytes as u64;
    let sessions_agree = lanes.iter().all(|lane| {
        lane.drbg
            .iter()
            .chain(&lane.conditioned)
            .all(|(session, given)| session.bytes_delivered() == *given)
    });
    let mut outcome = Outcome {
        attempted,
        failed,
        checks: vec![
            ("conditioned_bytes_identity", identity),
            ("session_bytes", sessions_agree),
        ],
        metrics: Vec::new(),
        spans: Vec::new(),
    };
    if run.traced {
        drop(lanes);
        drop(source);
        let mut tracer = run.replay_tracer(2);
        replay::replay_sample(inputs.source_seed, SHARDS, &mut tracer);
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
                seed_bytes,
            });
        }
        outcome.spans = spans;
    } else {
        drop(lanes);
        drop(source);
        let setup_s = time_set_ups(|| open(inputs));
        outcome.metrics = end_to_end(&setup_s, &phases[0]);
    }
    outcome
}

/// One load thread's closed loop until `deadline`. Latencies cover the
/// drbg reads; thread 0 interleaves conditioned reads per the schedule.
fn drive(
    inputs: &Inputs,
    thread: u64,
    lane: &mut Lane,
    deadline: Instant,
    mut slicer: Slicer,
    mut tracer: Tracer,
) -> Tally {
    let mut tally = Tally {
        slices: Vec::new(),
        bytes: 0,
        ops: 0,
        failed: 0,
        spans: Vec::new(),
    };
    let mut buf = vec![0u8; CONDITIONED_READ_BYTES];
    let mut next_drbg = 0;
    let mut seq = 0;
    while Instant::now() < deadline {
        let sampled = tracer.sampled(seq);
        if let (true, Some((session, given))) = (
            thread == 0 && inputs.conditioned_op(seq),
            lane.conditioned.as_mut(),
        ) {
            let out = &mut buf[..CONDITIONED_READ_BYTES];
            let start = Instant::now();
            let result = session.read(out);
            let end = Instant::now();
            if sampled {
                tracer.span(0, seq, "api.conditioned_read", start, end);
            }
            match result {
                Ok(()) => {
                    *given += out.len() as u64;
                    tally.bytes += out.len() as u64;
                    slicer.add_bytes(end, out.len() as u64);
                }
                Err(_) => tally.failed += 1,
            }
        } else {
            let sessions = lane.drbg.len();
            let (session, given) = &mut lane.drbg[next_drbg];
            next_drbg = (next_drbg + 1) % sessions;
            let out = &mut buf[..inputs.key_size(seq * THREADS as u64 + thread)];
            let reseeds = session.reseeds();
            let start = Instant::now();
            let result = session.read(out);
            let end = Instant::now();
            if sampled {
                let name = if session.reseeds() == reseeds {
                    "api.read"
                } else {
                    "api.harvest_read"
                };
                tracer.span(0, seq, name, start, end);
            }
            match result {
                Ok(()) => {
                    *given += out.len() as u64;
                    tally.bytes += out.len() as u64;
                    slicer.record(end, end - start, out.len() as u64);
                }
                Err(_) => tally.failed += 1,
            }
        }
        seq += 1;
    }
    tally.slices = slicer.finish(Instant::now());
    tally.ops = seq;
    tally.spans = tracer.into_spans();
    tally
}
