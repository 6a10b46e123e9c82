//! The wire protocol: length-prefixed request/response frames.
//!
//! Every message is one frame: a little-endian `u32` payload length,
//! then the payload. The payload's first byte is the opcode; all
//! integers are little-endian. The protocol is deliberately
//! transport-agnostic — the same bytes flow over TCP, a unix socket,
//! or the in-memory load generator — and deliberately versionless-
//! by-extension: unknown opcodes decode to a typed error (never a
//! panic, never a desync, because the frame length still delimits the
//! message).
//!
//! ```text
//! requests                          responses
//! 0x01 Hello  tier:u8 quota:u64     0x00 HelloOk  session:u64
//! 0x02 Read   n:u32                 0x01 Data     offset:u64 bytes[..]
//! 0x03 Stat                         0x02 Stat     StatReport fields
//!                                   0x7F Error    code:u8 retriable:u8 msg[..]
//! ```
//!
//! `Hello.quota = 0` means unmetered. `Data.offset` is the session's
//! delivered-byte offset of the first payload byte: a client asserting
//! offset continuity has verified exactly-once delivery end to end
//! (the load generator does exactly that).

use std::io::{self, Read, Write};

use dhtrng_stream::Tier;

/// Hard cap on one frame's payload (guards the length prefix against
/// hostile or corrupt peers before any allocation happens).
pub const MAX_FRAME_BYTES: u32 = (1 << 20) + 64;

/// Largest `Read.n` the protocol itself admits (services may impose a
/// smaller [`max_read`](crate::ServiceConfig::max_read)).
pub const MAX_READ_BYTES: u32 = 1 << 20;

/// A client-to-daemon message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Open the connection's session at `tier`, optionally metered.
    Hello {
        /// Quality tier of the requested session.
        tier: Tier,
        /// Lifetime byte budget (`None` = unmetered).
        quota: Option<u64>,
    },
    /// Read `n` bytes from the session.
    Read {
        /// Bytes requested.
        n: u32,
    },
    /// Ask for the source's service counters.
    Stat,
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is open.
    HelloOk {
        /// Source-unique session id.
        session: u64,
    },
    /// Entropy bytes, with the session's delivered-byte offset of the
    /// first payload byte.
    Data {
        /// Offset of `bytes[0]` in the session's delivered stream.
        offset: u64,
        /// The entropy payload.
        bytes: Vec<u8>,
    },
    /// The source's service counters.
    Stat(StatReport),
    /// A typed failure; `retriable` mirrors
    /// [`Error::is_retriable`](dhtrng_stream::Error::is_retriable).
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Whether retrying the identical request can succeed.
        retriable: bool,
        /// Human-readable detail.
        message: String,
    },
}

/// What the daemon's `Stat` response reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatReport {
    /// Whether the source has latched a terminal failure.
    pub degraded: bool,
    /// Shards in the deployment.
    pub shards: u32,
    /// Health-triggered shard restarts so far.
    pub restarts: u64,
    /// Sessions currently alive.
    pub live_sessions: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Reseed harvests served through the arbiter.
    pub reseeds_served: u64,
    /// Reseeds that stalled because the source had degraded.
    pub stalled_reseeds: u64,
    /// Conditioned bytes delivered (session reads + seed harvests).
    pub conditioned_bytes: u64,
    /// Healthy chunks the shard workers produced (telemetry).
    pub chunks_produced: u64,
    /// Health-test verdicts that failed (telemetry).
    pub health_failures: u64,
    /// Shards that retired terminally (telemetry).
    pub retirements: u64,
    /// Ring hand-off parks — a thread blocked on an empty/full ring
    /// (telemetry).
    pub ring_parks: u64,
    /// Ring hand-off wakes — a notify found a parked peer (telemetry).
    pub ring_wakes: u64,
    /// Conditioned-read rollbacks after a terminal source error
    /// (telemetry).
    pub rollbacks: u64,
    /// Reseed harvests that stalled, as counted by the stage telemetry
    /// (agrees with `stalled_reseeds`).
    pub telemetry_stalled_reseeds: u64,
    /// Bytes delivered through sessions, as counted by the stage
    /// telemetry.
    pub session_bytes: u64,
}

/// Failure classes a [`Response::Error`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be decoded, or was illegal in this
    /// connection state (e.g. `Read` before `Hello`).
    Malformed,
    /// The session's byte quota cannot cover the request.
    Quota,
    /// The reseed arbiter refused the harvest for now; retry.
    Backpressure,
    /// The source failed terminally under this request.
    SourceFailed,
    /// The requested read exceeds the service's size cap.
    Oversized,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            Self::Malformed => 1,
            Self::Quota => 2,
            Self::Backpressure => 3,
            Self::SourceFailed => 4,
            Self::Oversized => 5,
        }
    }

    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(Self::Malformed),
            2 => Some(Self::Quota),
            3 => Some(Self::Backpressure),
            4 => Some(Self::SourceFailed),
            5 => Some(Self::Oversized),
            _ => None,
        }
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload was empty or shorter than its opcode demands.
    Truncated,
    /// The leading opcode byte is not part of the protocol.
    UnknownOpcode(
        /// The rejected opcode.
        u8,
    ),
    /// A field held an out-of-range value (tier, error code).
    InvalidField(
        /// Which field was rejected.
        &'static str,
    ),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame payload truncated"),
            Self::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            Self::InvalidField(field) => write!(f, "invalid field: {field}"),
        }
    }
}

impl std::error::Error for ProtoError {}

const OP_HELLO: u8 = 0x01;
const OP_READ: u8 = 0x02;
const OP_STAT_REQ: u8 = 0x03;
const OP_HELLO_OK: u8 = 0x00;
const OP_DATA: u8 = 0x01;
const OP_STAT_RSP: u8 = 0x02;
const OP_ERROR: u8 = 0x7F;

fn tier_to_byte(tier: Tier) -> u8 {
    match tier {
        Tier::Raw => 0,
        Tier::Conditioned => 1,
        Tier::Drbg => 2,
    }
}

fn tier_from_byte(byte: u8) -> Option<Tier> {
    match byte {
        0 => Some(Tier::Raw),
        1 => Some(Tier::Conditioned),
        2 => Some(Tier::Drbg),
        _ => None,
    }
}

fn take_u32(payload: &[u8], at: usize) -> Result<u32, ProtoError> {
    let bytes = payload
        .get(at..at + 4)
        .ok_or(ProtoError::Truncated)?
        .try_into()
        .expect("4-byte slice");
    Ok(u32::from_le_bytes(bytes))
}

fn take_u64(payload: &[u8], at: usize) -> Result<u64, ProtoError> {
    let bytes = payload
        .get(at..at + 8)
        .ok_or(ProtoError::Truncated)?
        .try_into()
        .expect("8-byte slice");
    Ok(u64::from_le_bytes(bytes))
}

impl Request {
    /// Serialises the request payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            Self::Hello { tier, quota } => {
                let mut payload = Vec::with_capacity(10);
                payload.push(OP_HELLO);
                payload.push(tier_to_byte(tier));
                payload.extend_from_slice(&quota.unwrap_or(0).to_le_bytes());
                payload
            }
            Self::Read { n } => {
                let mut payload = Vec::with_capacity(5);
                payload.push(OP_READ);
                payload.extend_from_slice(&n.to_le_bytes());
                payload
            }
            Self::Stat => vec![OP_STAT_REQ],
        }
    }

    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, an unknown opcode, or an
    /// out-of-range tier.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let (&opcode, rest) = payload.split_first().ok_or(ProtoError::Truncated)?;
        match opcode {
            OP_HELLO => {
                let &tier = rest.first().ok_or(ProtoError::Truncated)?;
                let tier = tier_from_byte(tier).ok_or(ProtoError::InvalidField("tier"))?;
                let quota = take_u64(rest, 1)?;
                Ok(Self::Hello {
                    tier,
                    quota: (quota != 0).then_some(quota),
                })
            }
            OP_READ => Ok(Self::Read {
                n: take_u32(rest, 0)?,
            }),
            OP_STAT_REQ => Ok(Self::Stat),
            other => Err(ProtoError::UnknownOpcode(other)),
        }
    }
}

/// A `Data` payload holding only its header (opcode, then `offset`),
/// with capacity for the `len` entropy bytes that follow it. The one
/// place the `Data` layout is written: [`Response::encode`] appends the
/// bytes it holds, and the service has the session write its bytes
/// straight into the reserved tail.
pub(crate) fn data_header(offset: u64, len: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9 + len);
    payload.push(OP_DATA);
    payload.extend_from_slice(&offset.to_le_bytes());
    payload
}

impl Response {
    /// Serialises the response payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::HelloOk { session } => {
                let mut payload = Vec::with_capacity(9);
                payload.push(OP_HELLO_OK);
                payload.extend_from_slice(&session.to_le_bytes());
                payload
            }
            Self::Data { offset, bytes } => {
                let mut payload = data_header(*offset, bytes.len());
                payload.extend_from_slice(bytes);
                payload
            }
            Self::Stat(report) => {
                let mut payload = Vec::with_capacity(118);
                payload.push(OP_STAT_RSP);
                payload.push(u8::from(report.degraded));
                payload.extend_from_slice(&report.shards.to_le_bytes());
                payload.extend_from_slice(&report.restarts.to_le_bytes());
                payload.extend_from_slice(&report.live_sessions.to_le_bytes());
                payload.extend_from_slice(&report.sessions_opened.to_le_bytes());
                payload.extend_from_slice(&report.reseeds_served.to_le_bytes());
                payload.extend_from_slice(&report.stalled_reseeds.to_le_bytes());
                payload.extend_from_slice(&report.conditioned_bytes.to_le_bytes());
                payload.extend_from_slice(&report.chunks_produced.to_le_bytes());
                payload.extend_from_slice(&report.health_failures.to_le_bytes());
                payload.extend_from_slice(&report.retirements.to_le_bytes());
                payload.extend_from_slice(&report.ring_parks.to_le_bytes());
                payload.extend_from_slice(&report.ring_wakes.to_le_bytes());
                payload.extend_from_slice(&report.rollbacks.to_le_bytes());
                payload.extend_from_slice(&report.telemetry_stalled_reseeds.to_le_bytes());
                payload.extend_from_slice(&report.session_bytes.to_le_bytes());
                payload
            }
            Self::Error {
                code,
                retriable,
                message,
            } => {
                let mut payload = Vec::with_capacity(3 + message.len());
                payload.push(OP_ERROR);
                payload.push(code.to_byte());
                payload.push(u8::from(*retriable));
                payload.extend_from_slice(message.as_bytes());
                payload
            }
        }
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, an unknown opcode, an
    /// out-of-range error code, or a non-UTF-8 error message.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let (&opcode, rest) = payload.split_first().ok_or(ProtoError::Truncated)?;
        match opcode {
            OP_HELLO_OK => Ok(Self::HelloOk {
                session: take_u64(rest, 0)?,
            }),
            OP_DATA => Ok(Self::Data {
                offset: take_u64(rest, 0)?,
                bytes: rest.get(8..).ok_or(ProtoError::Truncated)?.to_vec(),
            }),
            OP_STAT_RSP => {
                let &degraded = rest.first().ok_or(ProtoError::Truncated)?;
                Ok(Self::Stat(StatReport {
                    degraded: degraded != 0,
                    shards: take_u32(rest, 1)?,
                    restarts: take_u64(rest, 5)?,
                    live_sessions: take_u64(rest, 13)?,
                    sessions_opened: take_u64(rest, 21)?,
                    reseeds_served: take_u64(rest, 29)?,
                    stalled_reseeds: take_u64(rest, 37)?,
                    conditioned_bytes: take_u64(rest, 45)?,
                    chunks_produced: take_u64(rest, 53)?,
                    health_failures: take_u64(rest, 61)?,
                    retirements: take_u64(rest, 69)?,
                    ring_parks: take_u64(rest, 77)?,
                    ring_wakes: take_u64(rest, 85)?,
                    rollbacks: take_u64(rest, 93)?,
                    telemetry_stalled_reseeds: take_u64(rest, 101)?,
                    session_bytes: take_u64(rest, 109)?,
                }))
            }
            OP_ERROR => {
                let &code = rest.first().ok_or(ProtoError::Truncated)?;
                let code =
                    ErrorCode::from_byte(code).ok_or(ProtoError::InvalidField("error code"))?;
                let &retriable = rest.get(1).ok_or(ProtoError::Truncated)?;
                let message = std::str::from_utf8(rest.get(2..).ok_or(ProtoError::Truncated)?)
                    .map_err(|_| ProtoError::InvalidField("error message"))?
                    .to_owned();
                Ok(Self::Error {
                    code,
                    retriable: retriable != 0,
                    message,
                })
            }
            other => Err(ProtoError::UnknownOpcode(other)),
        }
    }
}

/// Writes one frame (length prefix + payload).
///
/// # Errors
///
/// The transport's I/O error; `InvalidInput` if the payload exceeds
/// [`MAX_FRAME_BYTES`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES);
    let Some(len) = len else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME_BYTES",
        ));
    };
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame's payload; `Ok(None)` on a clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// The transport's I/O error; `InvalidData` if the peer announces a
/// frame over [`MAX_FRAME_BYTES`]; `UnexpectedEof` on a mid-frame
/// hangup.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A clean EOF before any length byte is an orderly close.
    match reader.read(&mut len)? {
        0 => return Ok(None),
        n => reader.read_exact(&mut len[n..])?,
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "peer announced an oversized frame",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Hello {
                tier: Tier::Drbg,
                quota: Some(4096),
            },
            Request::Hello {
                tier: Tier::Raw,
                quota: None,
            },
            Request::Read { n: 32 },
            Request::Stat,
        ] {
            let decoded = Request::decode(&request.encode()).expect("round trip");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::HelloOk { session: 7 },
            Response::Data {
                offset: 640,
                bytes: vec![1, 2, 3],
            },
            Response::Stat(StatReport {
                degraded: true,
                shards: 4,
                restarts: 2,
                live_sessions: 1000,
                sessions_opened: 1024,
                reseeds_served: 9,
                stalled_reseeds: 3,
                conditioned_bytes: 1 << 20,
                chunks_produced: 512,
                health_failures: 6,
                retirements: 1,
                ring_parks: 88,
                ring_wakes: 90,
                rollbacks: 2,
                telemetry_stalled_reseeds: 3,
                session_bytes: 1 << 19,
            }),
            Response::Error {
                code: ErrorCode::Backpressure,
                retriable: true,
                message: "retry after a turn".into(),
            },
        ] {
            let decoded = Response::decode(&response.encode()).expect("round trip");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(
            Request::decode(&[0x42]),
            Err(ProtoError::UnknownOpcode(0x42))
        );
        assert_eq!(
            Request::decode(&[OP_HELLO, 9, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtoError::InvalidField("tier"))
        );
        assert_eq!(
            Request::decode(&[OP_READ, 1, 2]),
            Err(ProtoError::Truncated)
        );
        assert_eq!(
            Response::decode(&[OP_ERROR, 99, 0]),
            Err(ProtoError::InvalidField("error code"))
        );
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3]).expect("write");
        write_frame(&mut wire, &[]).expect("write");
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).expect("frame"), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut cursor).expect("frame"), Some(vec![]));
        assert_eq!(read_frame(&mut cursor).expect("eof"), None);

        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }
}
