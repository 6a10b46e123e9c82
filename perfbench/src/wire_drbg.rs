//! `wire-drbg`: one thread interleaves 256 simultaneously open drbg
//! sessions round-robin, each read a full frame round trip
//! (`Request::encode` → `Connection::handle_frame` →
//! `Response::decode`) with sockets left out. Read sizes are key-sized,
//! drawn from the seed.
//!
//! `proto`, `service`, `api` and `HashDrbg` dominate; the engine serves
//! only the instantiate harvests and the reseeds at the default 1 Mibit
//! interval. Every `Data` frame must extend its session's offset
//! contiguously with the requested length.

use std::time::Instant;

use dhtrng_serve::{Connection, Request, Response, Service};
use dhtrng_stream::{EntropySource, Session, Tier};

use crate::inputs::{Inputs, MAX_READ_BYTES, WIRE_SESSIONS};
use crate::layers::{layer_metrics, LayerContext};
use crate::replay;
use crate::report::{end_to_end, time_set_ups, Outcome, Phase, RunConfig, Slicer, Window, SLICE_S};

const SHARDS: usize = 2;

/// The open connections and the offset each must continue from.
struct Wire {
    service: Service,
    connections: Vec<Connection>,
    offsets: Vec<u64>,
}

fn round_trip(connection: &mut Connection, request: &Request) -> Option<Response> {
    Response::decode(&connection.handle_frame(&request.encode())).ok()
}

/// Builds the source and service, opens every session with a `Hello`,
/// and reads the first frame.
fn open(inputs: &Inputs) -> Wire {
    let source = EntropySource::builder()
        .shards(SHARDS)
        .seed(inputs.source_seed)
        .build()
        .expect("valid wire-drbg configuration");
    let service = Service::new(source);
    let hello = Request::Hello {
        tier: Tier::Drbg,
        quota: None,
    };
    let connections: Vec<Connection> = (0..WIRE_SESSIONS)
        .map(|_| {
            let mut connection = service.connect();
            let reply = round_trip(&mut connection, &hello);
            assert!(
                matches!(reply, Some(Response::HelloOk { .. })),
                "Hello refused: {reply:?}"
            );
            connection
        })
        .collect();
    let mut wire = Wire {
        service,
        connections,
        offsets: vec![0; WIRE_SESSIONS],
    };
    assert!(
        wire.read(0, inputs.read_size(0)).is_some(),
        "the first frame of a fresh service is data"
    );
    wire
}

impl Wire {
    /// One checked `Read` round trip on connection `index`; the
    /// timestamps around encode, handle_frame and decode, or `None` on
    /// a protocol error or an exactly-once violation.
    fn read(&mut self, index: usize, n: usize) -> Option<[Instant; 4]> {
        let connection = &mut self.connections[index];
        let n32 = u32::try_from(n).expect("key-sized reads fit in u32");
        let t0 = Instant::now();
        let frame = Request::Read { n: n32 }.encode();
        let t1 = Instant::now();
        let reply = connection.handle_frame(&frame);
        let t2 = Instant::now();
        let response = Response::decode(&reply);
        let t3 = Instant::now();
        match response {
            Ok(Response::Data { offset, bytes })
                if offset == self.offsets[index] && bytes.len() == n =>
            {
                self.offsets[index] += n as u64;
                Some([t0, t1, t2, t3])
            }
            _ => None,
        }
    }

    fn reseeds(&self, index: usize) -> u64 {
        self.connections[index]
            .session()
            .map_or(0, Session::reseeds)
    }
}

pub fn run(inputs: &Inputs, run: &RunConfig) -> Outcome {
    let mut wire = open(inputs);

    let before = wire.service.source().stats();
    let mut failed = 0;
    let mut attempted = 1;
    let mut phases = Vec::new();
    let mut spans = Vec::new();
    let mut seq = 1;
    for (seconds, traced) in run.phases() {
        let mut tracer = run.tracer(0, traced);
        // The twin reads the same sizes straight through `Session::read`,
        // so service self time can be separated from the session's.
        let mut twin = traced.then(|| {
            let mut twin = wire.service.source().session(Tier::Drbg);
            twin.prime().expect("a healthy source primes a session");
            twin
        });
        let mut twin_buf = vec![0u8; MAX_READ_BYTES];
        let mut bytes = 0;
        let first_seq = seq;
        let window = Window::open();
        let deadline = window.deadline(seconds);
        let mut slicer = Slicer::new(window.start(), seconds, SLICE_S);
        while Instant::now() < deadline {
            let index = (seq % WIRE_SESSIONS as u64) as usize;
            let n = inputs.read_size(seq);
            let sampled = tracer.sampled(seq);
            let reseeds = if sampled { wire.reseeds(index) } else { 0 };
            match wire.read(index, n) {
                Some([t0, t1, t2, t3]) => {
                    slicer.record(t3, t3 - t0, n as u64);
                    bytes += n as u64;
                    if sampled {
                        let handle = if wire.reseeds(index) == reseeds {
                            "service.handle_frame"
                        } else {
                            "service.handle_frame_harvest"
                        };
                        let root = tracer.reserve();
                        tracer.span(root, seq, "proto.encode", t0, t1);
                        tracer.span(root, seq, handle, t1, t2);
                        tracer.span(root, seq, "proto.decode", t2, t3);
                        tracer.record(root, 0, seq, "wire.request", t0, t3);
                    }
                }
                None => failed += 1,
            }
            if let (true, Some(twin)) = (sampled, twin.as_mut()) {
                let reseeds = twin.reseeds();
                let start = Instant::now();
                let result = twin.read(&mut twin_buf[..n]);
                let end = Instant::now();
                let name = if twin.reseeds() == reseeds {
                    "api.read"
                } else {
                    "api.harvest_read"
                };
                tracer.span(0, seq, name, start, end);
                if result.is_err() {
                    failed += 1;
                }
            }
            seq += 1;
        }
        attempted += seq - first_seq;
        phases.push(Phase {
            slices: slicer.finish(Instant::now()),
            window: window.close(),
            bytes,
            ops: seq - first_seq,
        });
        spans.extend(tracer.into_spans());
    }
    let after = wire.service.source().stats();

    // Exactly-once: each session delivered exactly what its frames said.
    let sessions_agree = wire
        .connections
        .iter()
        .zip(&wire.offsets)
        .all(|(c, &offset)| c.session().map(Session::bytes_delivered) == Some(offset));
    let mut outcome = Outcome {
        attempted,
        failed,
        checks: vec![("session_offsets", sessions_agree)],
        metrics: Vec::new(),
        spans: Vec::new(),
    };
    if run.traced {
        let seed_bytes = wire.service.source().drbg_config().seed_bytes;
        drop(wire);
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
        drop(wire);
        let setup_s = time_set_ups(|| open(inputs));
        outcome.metrics = end_to_end(&setup_s, &phases[0]);
    }
    outcome
}
