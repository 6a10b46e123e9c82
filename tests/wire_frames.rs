//! `Connection::handle_frame` answers a `Read` by having the session
//! write its bytes straight into the `Data` payload. These properties
//! pin that path to the plain encoding, over arbitrary read-size
//! sequences on every tier:
//!
//! * every `Data` frame equals `Response::Data { offset, bytes }.encode()`,
//!   where `bytes` are what a plain `Session` on a same-seed source
//!   reads at the same sizes;
//! * every error frame (a `Read` before `Hello`, a read over the
//!   service cap, a read past the quota) equals the `Response::Error`
//!   encoding the service has always sent: same code, retriable flag
//!   and message.

use dh_trng::prelude::*;
use dh_trng::serve::{Connection, ErrorCode, Request, Response};
use proptest::prelude::*;

/// The service cap on one `Read`.
const MAX_READ: u32 = 4096 + 256;

fn source(seed: u64) -> EntropySource {
    EntropySource::builder()
        .shards(2)
        .seed(seed)
        .chunk_bytes(1024)
        .build()
        .expect("valid source")
}

/// Read sizes: the 64-byte boundaries, key sizes, 1–4 KiB, and sizes
/// over the service cap (up to `u32::MAX`).
fn read_size() -> impl Strategy<Value = u32> {
    (0u8..8, 0u32..4096).prop_map(|(kind, x)| match kind {
        0 | 1 => [0, 1, 63, 64, 65][x as usize % 5],
        2 | 3 => 32 + x % 33,
        4 | 5 => 1024 + x % 3073,
        6 => MAX_READ + 1 + x,
        _ => u32::MAX - x,
    })
}

fn error_frame(code: ErrorCode, message: String) -> Vec<u8> {
    Response::Error {
        code,
        retriable: false,
        message,
    }
    .encode()
}

fn read_reply(connection: &mut Connection, n: u32) -> Vec<u8> {
    connection.handle_frame(&Request::Read { n }.encode())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn read_frames_match_the_plain_encoding(
        seed in any::<u64>(),
        tier in (0usize..3).prop_map(|i| [Tier::Raw, Tier::Conditioned, Tier::Drbg][i]),
        quota in (any::<bool>(), 1u64..16_384).prop_map(|(metered, q)| metered.then_some(q)),
        read_before_hello in any::<bool>(),
        sizes in proptest::collection::vec(read_size(), 1..24),
    ) {
        let service = Service::with_config(
            source(seed),
            ServiceConfig { max_read: MAX_READ, default_quota: None },
        );
        let mut connection = service.connect();
        if read_before_hello {
            prop_assert_eq!(
                read_reply(&mut connection, sizes[0]),
                error_frame(
                    ErrorCode::Malformed,
                    "Read before Hello: open a session first".into(),
                )
            );
        }
        let hello = connection.handle_frame(&Request::Hello { tier, quota }.encode());
        prop_assert!(matches!(Response::decode(&hello), Ok(Response::HelloOk { .. })));

        let twin_source = source(seed);
        let mut config = SessionConfig::new(tier);
        if let Some(bytes) = quota {
            config = config.quota(bytes);
        }
        let mut twin = twin_source.session_with(config);
        twin.prime().expect("a healthy source primes a session");

        for &n in &sizes {
            let reply = read_reply(&mut connection, n);
            let expected = if n > MAX_READ {
                error_frame(
                    ErrorCode::Oversized,
                    format!("read of {n} bytes exceeds the service cap of {MAX_READ} bytes"),
                )
            } else {
                let offset = twin.bytes_delivered();
                let mut bytes = vec![0u8; n as usize];
                match twin.read(&mut bytes) {
                    Ok(()) => Response::Data { offset, bytes }.encode(),
                    Err(error) => {
                        let remaining = quota.expect("only a metered session refuses") - offset;
                        prop_assert!(u64::from(n) > remaining, "unexpected {error}");
                        error_frame(
                            ErrorCode::Quota,
                            format!(
                                "session quota exceeded: requested {n} bytes, \
                                 {remaining} remaining"
                            ),
                        )
                    }
                }
            };
            prop_assert_eq!(reply, expected, "read of {} bytes", n);
        }
        prop_assert_eq!(
            connection.session().map(Session::bytes_delivered),
            Some(twin.bytes_delivered())
        );
    }
}
