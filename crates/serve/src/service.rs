//! The transport-agnostic service core.
//!
//! A [`Service`] wraps one shared [`EntropySource`] plus daemon
//! policy; each client connection gets a [`Connection`] — a small
//! state machine that turns decoded [`Request`]s into [`Response`]s.
//! The socket server ([`crate::server`]) and the in-memory load
//! generator ([`crate::loadgen`]) drive the *same* state machine, so
//! everything the load generator proves (exactly-once offsets, zero
//! protocol errors under shard retirement) holds for the daemon too:
//! only the byte transport differs.
//!
//! # Connection lifecycle
//!
//! ```text
//! AwaitingHello --Hello--> Open(Session) --Read/Stat--> Open
//!        |                      |
//!        +--Read--> Error       +--Hello--> Error (duplicate)
//! ```
//!
//! `Hello` opens the session *and primes it*: for the drbg tier the
//! first seed harvest happens at handshake time, so a shard that
//! retires after `HelloOk` can never kill the session — its reseeds
//! stall and reads keep flowing from DRBG state ([`Response::Stat`]
//! reports `degraded` and the climbing `stalled_reseeds`).

use dhtrng_stream::{EntropySource, Error, Session, SessionConfig, Tier};

use crate::proto::{data_header, ErrorCode, ProtoError, Request, Response, StatReport};

/// Daemon-side policy knobs, per [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Largest single `Read` the service grants (default 64 KiB;
    /// never above [`crate::proto::MAX_READ_BYTES`]).
    pub max_read: u32,
    /// Quota imposed on sessions whose `Hello` asked for none
    /// (`None` = such sessions are unmetered).
    pub default_quota: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_read: 64 * 1024,
            default_quota: None,
        }
    }
}

/// One daemon: a shared [`EntropySource`] plus service policy.
///
/// Cloning is cheap (the source is shared, not duplicated) — the
/// socket server clones one `Service` into every connection thread.
#[derive(Debug, Clone)]
pub struct Service {
    source: EntropySource,
    config: ServiceConfig,
}

impl Service {
    /// Serves `source` under the default [`ServiceConfig`].
    pub fn new(source: EntropySource) -> Self {
        Self::with_config(source, ServiceConfig::default())
    }

    /// Serves `source` under an explicit policy.
    pub fn with_config(source: EntropySource, config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            max_read: config.max_read.min(crate::proto::MAX_READ_BYTES),
            ..config
        };
        Self { source, config }
    }

    /// The shared source every connection draws from.
    pub fn source(&self) -> &EntropySource {
        &self.source
    }

    /// The service policy.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Opens a fresh connection state machine (no session yet — the
    /// client's `Hello` mints one).
    pub fn connect(&self) -> Connection {
        Connection {
            service: self.clone(),
            session: None,
        }
    }

    /// The source counters as a wire-ready [`StatReport`].
    pub fn stat(&self) -> StatReport {
        let stats = self.source.stats();
        StatReport {
            degraded: stats.degraded.is_some(),
            shards: stats.shards as u32,
            restarts: stats.restarts,
            live_sessions: stats.live_sessions,
            sessions_opened: stats.sessions_opened,
            reseeds_served: stats.reseeds_served,
            stalled_reseeds: stats.stalled_reseeds,
            conditioned_bytes: stats.conditioned_bytes,
            chunks_produced: stats.telemetry.chunks_produced,
            health_failures: stats.telemetry.health_failures,
            retirements: stats.telemetry.retirements,
            ring_parks: stats.telemetry.ring_parks,
            ring_wakes: stats.telemetry.ring_wakes,
            rollbacks: stats.telemetry.rollbacks,
            telemetry_stalled_reseeds: stats.telemetry.reseeds_stalled,
            session_bytes: stats.telemetry.session_bytes,
        }
    }
}

/// Per-client connection state: `None` until a successful `Hello`,
/// then the client's private [`Session`].
#[derive(Debug)]
pub struct Connection {
    service: Service,
    session: Option<Session>,
}

impl Connection {
    /// Handles one decoded request; always produces a response
    /// (errors are responses, never panics or silent drops).
    pub fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Hello { tier, quota } => self.hello(tier, quota),
            Request::Read { n } => match self.read(n, |_, n| Vec::with_capacity(n)) {
                Ok((offset, bytes)) => Response::Data { offset, bytes },
                Err(error) => error,
            },
            Request::Stat => Response::Stat(self.service.stat()),
        }
    }

    /// Handles one raw frame payload: decode, dispatch, encode. The
    /// returned bytes are the response payload (no length prefix).
    /// Undecodable payloads become an encoded `Malformed` error
    /// response — a broken client cannot crash or desync the daemon.
    ///
    /// A successful `Read` is answered from one buffer: the session
    /// writes its bytes straight into the `Data` payload, after the
    /// header, so the reply costs one allocation and no re-encoding.
    pub fn handle_frame(&mut self, payload: &[u8]) -> Vec<u8> {
        let response = match Request::decode(payload) {
            Ok(Request::Read { n }) => match self.read(n, data_header) {
                Ok((_, frame)) => return frame,
                Err(error) => error,
            },
            Ok(request) => self.handle(request),
            Err(error) => malformed(&error),
        };
        response.encode()
    }

    /// The session, once `Hello` has opened one.
    pub fn session(&self) -> Option<&Session> {
        self.session.as_ref()
    }

    fn hello(&mut self, tier: Tier, quota: Option<u64>) -> Response {
        if self.session.is_some() {
            return Response::Error {
                code: ErrorCode::Malformed,
                retriable: false,
                message: "duplicate Hello: the connection already has a session".into(),
            };
        }
        let quota = quota.or(self.service.config.default_quota);
        let mut config = SessionConfig::new(tier);
        if let Some(bytes) = quota {
            config = config.quota(bytes);
        }
        let mut session = self.service.source.session_with(config);
        // Prime at handshake time: the drbg session instantiates from
        // a live harvest now, so later shard retirement degrades it
        // (stalled reseeds) instead of killing it mid-read.
        if let Err(error) = session.prime() {
            return stream_error(&error);
        }
        let id = session.id();
        self.session = Some(session);
        Response::HelloOk { session: id }
    }

    /// The one `Read` path, behind both [`handle`](Self::handle) and
    /// [`handle_frame`](Self::handle_frame): checks the connection
    /// state and the service cap, then has the session fill `n` bytes
    /// appended to the buffer `prefix(offset, n)` returns. `offset` is
    /// the session's delivered-byte offset of the first of them.
    /// Returns that offset and the filled buffer, or the error
    /// response.
    fn read(
        &mut self,
        n: u32,
        prefix: impl FnOnce(u64, usize) -> Vec<u8>,
    ) -> Result<(u64, Vec<u8>), Response> {
        let Some(session) = self.session.as_mut() else {
            return Err(Response::Error {
                code: ErrorCode::Malformed,
                retriable: false,
                message: "Read before Hello: open a session first".into(),
            });
        };
        if n > self.service.config.max_read {
            return Err(Response::Error {
                code: ErrorCode::Oversized,
                retriable: false,
                message: format!(
                    "read of {n} bytes exceeds the service cap of {} bytes",
                    self.service.config.max_read
                ),
            });
        }
        let offset = session.bytes_delivered();
        let mut buf = prefix(offset, n as usize);
        let start = buf.len();
        buf.resize(start + n as usize, 0);
        match session.read(&mut buf[start..]) {
            Ok(()) => Ok((offset, buf)),
            Err(error) => Err(stream_error(&error)),
        }
    }
}

fn malformed(error: &ProtoError) -> Response {
    Response::Error {
        code: ErrorCode::Malformed,
        retriable: false,
        message: error.to_string(),
    }
}

fn stream_error(error: &Error) -> Response {
    let code = match error {
        Error::QuotaExceeded { .. } => ErrorCode::Quota,
        Error::Backpressure => ErrorCode::Backpressure,
        _ => ErrorCode::SourceFailed,
    };
    Response::Error {
        code,
        retriable: error.is_retriable(),
        message: error.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_stream::EntropySource;

    fn service() -> Service {
        let source = EntropySource::builder()
            .shards(2)
            .seed(11)
            .chunk_bytes(512)
            .build()
            .expect("valid source");
        Service::new(source)
    }

    #[test]
    fn hello_then_reads_deliver_contiguous_offsets() {
        let service = service();
        let mut connection = service.connect();
        let hello = connection.handle(Request::Hello {
            tier: Tier::Drbg,
            quota: None,
        });
        assert!(matches!(hello, Response::HelloOk { .. }), "got {hello:?}");

        let mut expected = 0u64;
        for _ in 0..8 {
            match connection.handle(Request::Read { n: 96 }) {
                Response::Data { offset, bytes } => {
                    assert_eq!(offset, expected);
                    assert_eq!(bytes.len(), 96);
                    expected += 96;
                }
                other => panic!("expected data, got {other:?}"),
            }
        }
    }

    #[test]
    fn reads_before_hello_and_duplicate_hellos_are_rejected() {
        let service = service();
        let mut connection = service.connect();
        assert!(matches!(
            connection.handle(Request::Read { n: 8 }),
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
        connection.handle(Request::Hello {
            tier: Tier::Conditioned,
            quota: None,
        });
        assert!(matches!(
            connection.handle(Request::Hello {
                tier: Tier::Conditioned,
                quota: None,
            }),
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn quota_and_oversize_map_to_typed_errors() {
        let service = service();
        let mut connection = service.connect();
        connection.handle(Request::Hello {
            tier: Tier::Drbg,
            quota: Some(100),
        });
        match connection.handle(Request::Read { n: 101 }) {
            Response::Error {
                code: ErrorCode::Quota,
                retriable,
                ..
            } => assert!(!retriable),
            other => panic!("expected quota error, got {other:?}"),
        }
        // The rejection delivered nothing, so the full budget remains.
        assert!(matches!(
            connection.handle(Request::Read { n: 100 }),
            Response::Data { offset: 0, .. }
        ));

        match connection.handle(Request::Read {
            n: crate::proto::MAX_READ_BYTES,
        }) {
            Response::Error {
                code: ErrorCode::Oversized,
                ..
            } => {}
            other => panic!("expected oversize error, got {other:?}"),
        }
    }

    #[test]
    fn undecodable_frames_answer_with_malformed() {
        let service = service();
        let mut connection = service.connect();
        let payload = connection.handle_frame(&[0x42, 0, 0]);
        match Response::decode(&payload).expect("decodable") {
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            } => {}
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn stat_reflects_sessions_and_degradation() {
        let source = EntropySource::builder()
            .shards(2)
            .seed(3)
            .chunk_bytes(512)
            .inject_shard_failure(0, 1)
            .max_consecutive_restarts(0)
            .drbg_config(dhtrng_core::drbg::DrbgConfig {
                reseed_interval_bits: 512,
                ..Default::default()
            })
            .build()
            .expect("valid source");
        let service = Service::new(source);
        let mut connection = service.connect();
        connection.handle(Request::Hello {
            tier: Tier::Drbg,
            quota: None,
        });
        match connection.handle(Request::Stat) {
            Response::Stat(report) => {
                assert_eq!(report.live_sessions, 1);
                assert_eq!(report.shards, 2);
            }
            other => panic!("expected stat, got {other:?}"),
        }
        // Drain until the injected retirement has been observed; the
        // drbg session stalls its reseeds instead of dying.
        for _ in 0..64 {
            match connection.handle(Request::Read { n: 256 }) {
                Response::Data { .. } => {}
                other => panic!("drbg session must survive retirement, got {other:?}"),
            }
        }
        match connection.handle(Request::Stat) {
            Response::Stat(report) => {
                assert!(report.degraded, "retirement must latch in Stat");
                assert!(report.stalled_reseeds > 0);
                // The stage telemetry and the service counters are two
                // independent tallies of the same events.
                assert_eq!(report.telemetry_stalled_reseeds, report.stalled_reseeds);
                assert_eq!(report.retirements, 1, "exactly the injected retirement");
                assert!(report.chunks_produced >= 1);
                assert_eq!(
                    report.session_bytes,
                    64 * 256,
                    "every served Read is a session byte"
                );
            }
            other => panic!("expected stat, got {other:?}"),
        }
    }
}
