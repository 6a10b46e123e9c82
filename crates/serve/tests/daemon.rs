//! End-to-end daemon tests over real sockets: the wire protocol, the
//! thread-per-connection server, and the blocking client all in one
//! loop, with concurrent out-of-process-style clients.

use std::thread;
use std::time::{Duration, Instant};

use dhtrng_serve::{serve_tcp, Client, ClientError, ErrorCode, Service, ServiceConfig};
use dhtrng_stream::{EntropySource, Tier};

fn service(seed: u64) -> Service {
    let source = EntropySource::builder()
        .shards(2)
        .seed(seed)
        .chunk_bytes(2048)
        .build()
        .expect("valid source");
    Service::new(source)
}

#[test]
fn concurrent_tcp_clients_each_get_their_own_session() {
    let handle = serve_tcp(service(41), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    let sessions: Vec<(u64, Vec<u8>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect_tcp(addr).expect("connect");
                    let id = client.hello(Tier::Drbg, None).expect("handshake");
                    let mut delivered = Vec::new();
                    // Client::read verifies offset contiguity itself.
                    for _ in 0..6 {
                        delivered.extend(client.read(48).expect("read"));
                    }
                    (id, delivered)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("no panics"))
            .collect()
    });

    // Distinct sessions, distinct output streams.
    for (i, (id_a, bytes_a)) in sessions.iter().enumerate() {
        for (id_b, bytes_b) in &sessions[i + 1..] {
            assert_ne!(id_a, id_b, "session ids must be unique");
            assert_ne!(bytes_a, bytes_b, "sessions must not share output");
        }
    }

    let mut client = Client::connect_tcp(addr).expect("connect");
    client.hello(Tier::Conditioned, None).expect("handshake");
    let report = client.stat().expect("stat");
    assert!(!report.degraded);
    assert_eq!(report.shards, 2);
    assert_eq!(report.sessions_opened, 9);

    handle.shutdown();
}

#[test]
fn daemon_enforces_quotas_and_read_caps_over_the_wire() {
    let source = EntropySource::builder()
        .shards(1)
        .seed(43)
        .chunk_bytes(1024)
        .build()
        .expect("valid source");
    let service = Service::with_config(
        source,
        ServiceConfig {
            max_read: 128,
            default_quota: None,
        },
    );
    let handle = serve_tcp(service, "127.0.0.1:0").expect("bind");

    let mut client = Client::connect_tcp(handle.addr()).expect("connect");
    client.hello(Tier::Drbg, Some(96)).expect("handshake");

    match client.read(256) {
        Err(ClientError::Daemon {
            code: ErrorCode::Oversized,
            retriable: false,
            ..
        }) => {}
        other => panic!("expected oversize rejection, got {other:?}"),
    }
    match client.read(97) {
        Err(ClientError::Daemon {
            code: ErrorCode::Quota,
            retriable: false,
            ..
        }) => {}
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // Rejections deliver nothing: the full 96-byte budget is intact.
    assert_eq!(client.read(96).expect("within quota").len(), 96);

    handle.shutdown();
}

#[test]
fn sequential_tcp_reads_are_not_held_back_by_nagle() {
    let handle = serve_tcp(service(59), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect_tcp(handle.addr()).expect("connect");
    client.hello(Tier::Drbg, None).expect("handshake");

    // Every response leaves the daemon as two writes (length prefix,
    // then payload). Should Nagle hold each payload back until the
    // client's delayed ACK, a read costs ~40 ms and these 100 take 4 s
    // or more; with TCP_NODELAY on the accepted stream they take
    // milliseconds.
    let start = Instant::now();
    for _ in 0..100 {
        assert_eq!(client.read(32).expect("read").len(), 32);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "100 sequential 32 B reads over loopback TCP took {elapsed:?}"
    );

    handle.shutdown();
}

#[test]
fn malformed_bytes_get_a_typed_error_not_a_hangup() {
    use dhtrng_serve::{Request, Response};
    use std::io::Write;

    let handle = serve_tcp(service(47), "127.0.0.1:0").expect("bind");
    let mut socket = std::net::TcpStream::connect(handle.addr()).expect("connect");

    // A framed-but-gibberish payload answers Malformed...
    dhtrng_serve::proto::write_frame(&mut socket, &[0xEE, 1, 2, 3]).expect("write");
    let payload = dhtrng_serve::proto::read_frame(&mut socket)
        .expect("read")
        .expect("open");
    match Response::decode(&payload).expect("decodable") {
        Response::Error {
            code: ErrorCode::Malformed,
            ..
        } => {}
        other => panic!("expected malformed, got {other:?}"),
    }

    // ...and the same connection still works afterwards.
    dhtrng_serve::proto::write_frame(&mut socket, &Request::Stat.encode()).expect("write");
    let payload = dhtrng_serve::proto::read_frame(&mut socket)
        .expect("read")
        .expect("open");
    assert!(matches!(
        Response::decode(&payload).expect("decodable"),
        Response::Stat(_)
    ));

    // An oversized length prefix is the one thing that does end the
    // connection (the daemon will not allocate for it).
    let huge = (dhtrng_serve::proto::MAX_FRAME_BYTES + 1).to_le_bytes();
    socket.write_all(&huge).expect("write");
    assert!(dhtrng_serve::proto::read_frame(&mut socket)
        .expect("read")
        .is_none());

    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dhtrng-serve-test-{}.sock", std::process::id()));
    let handle = dhtrng_serve::serve_unix(service(53), &path).expect("bind");

    let mut client = Client::connect_unix(handle.path()).expect("connect");
    client.hello(Tier::Conditioned, None).expect("handshake");
    let bytes = client.read(64).expect("read");
    assert_eq!(bytes.len(), 64);
    let report = client.stat().expect("stat");
    assert_eq!(report.live_sessions, 1);

    drop(client);
    handle.shutdown();
    assert!(!path.exists(), "shutdown must unlink the socket file");
}
