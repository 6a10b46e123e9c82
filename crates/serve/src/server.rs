//! The socket front-end: TCP everywhere, unix-domain sockets on unix.
//!
//! std-only by design (the container has no async runtime): one
//! accept thread per listener, one thread per connection, and the
//! blocking reads inside [`Session`](dhtrng_stream::Session) do the
//! flow control — a client that stops reading its socket eventually
//! blocks its connection thread on `write`, which stops that
//! session's draws on the shared source without affecting anyone
//! else's. Thousands of *sessions* are exercised through the
//! in-memory load generator ([`crate::loadgen`]); the socket layer
//! exists so real out-of-process clients speak the same frames.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] raises a flag
//! and then connects to the listener once to unblock `accept`. Live
//! connection threads finish their in-flight request and exit when
//! the client hangs up.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use crate::proto::{read_frame, write_frame, ProtoError, Request, Response, StatReport};
use crate::service::Service;
use dhtrng_stream::Tier;

/// Runs one connection to completion: frame in, state machine, frame
/// out, until the peer closes or the transport fails.
fn drive_connection(service: &Service, transport: &mut (impl Read + Write)) -> io::Result<()> {
    let mut connection = service.connect();
    while let Some(payload) = read_frame(transport)? {
        let response = connection.handle_frame(&payload);
        write_frame(transport, &response)?;
    }
    Ok(())
}

/// A running listener; dropping the handle does **not** stop it —
/// call [`shutdown`](Self::shutdown).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Already-open
    /// connections drain naturally as their clients hang up.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Binds `addr` and serves `service` over TCP until shut down.
///
/// # Errors
///
/// The bind error, verbatim.
pub fn serve_tcp(service: Service, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept = thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            // `write_frame` sends the length prefix and the payload as
            // two writes; with Nagle on, the payload would wait for the
            // client's delayed ACK (~40 ms) on every response.
            let _ = stream.set_nodelay(true);
            let service = service.clone();
            thread::spawn(move || {
                let _ = drive_connection(&service, &mut stream);
            });
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
    })
}

/// A running unix-socket listener (unix only); the socket file is
/// removed on [`shutdown`](Self::shutdown).
#[cfg(unix)]
#[derive(Debug)]
pub struct UnixServerHandle {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

#[cfg(unix)]
impl UnixServerHandle {
    /// The socket path clients connect to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops accepting, joins the accept thread, and unlinks the
    /// socket file.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.path);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Binds a unix-domain socket at `path` and serves `service` until
/// shut down. A stale socket file at `path` is removed first.
///
/// # Errors
///
/// The bind error, verbatim.
#[cfg(unix)]
pub fn serve_unix(service: Service, path: impl AsRef<Path>) -> io::Result<UnixServerHandle> {
    let path = path.as_ref().to_path_buf();
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept = thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let service = service.clone();
            thread::spawn(move || {
                let _ = drive_connection(&service, &mut stream);
            });
        }
    });
    Ok(UnixServerHandle {
        path,
        stop,
        accept: Some(accept),
    })
}

/// What a [`Client`] call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The daemon's bytes did not decode.
    Proto(ProtoError),
    /// The daemon closed the connection mid-exchange.
    Closed,
    /// The daemon answered with a different response than the request
    /// calls for.
    Unexpected(Response),
    /// The daemon answered with a protocol-level error response.
    Daemon {
        /// Machine-readable failure class.
        code: crate::proto::ErrorCode,
        /// Whether retrying the identical request can succeed.
        retriable: bool,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(error) => write!(f, "transport error: {error}"),
            Self::Proto(error) => write!(f, "protocol error: {error}"),
            Self::Closed => write!(f, "daemon closed the connection"),
            Self::Unexpected(response) => write!(f, "unexpected response: {response:?}"),
            Self::Daemon { message, .. } => write!(f, "daemon error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(error) => Some(error),
            Self::Proto(error) => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(error: io::Error) -> Self {
        Self::Io(error)
    }
}

impl From<ProtoError> for ClientError {
    fn from(error: ProtoError) -> Self {
        Self::Proto(error)
    }
}

/// A blocking protocol client over any byte transport.
#[derive(Debug)]
pub struct Client<S> {
    transport: S,
    offset: u64,
}

impl Client<TcpStream> {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// The connect error, verbatim.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::new(stream))
    }
}

#[cfg(unix)]
impl Client<UnixStream> {
    /// Connects over a unix-domain socket.
    ///
    /// # Errors
    ///
    /// The connect error, verbatim.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(UnixStream::connect(path)?))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected transport.
    pub fn new(transport: S) -> Self {
        Self {
            transport,
            offset: 0,
        }
    }

    fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.transport, &request.encode())?;
        let payload = read_frame(&mut self.transport)?.ok_or(ClientError::Closed)?;
        match Response::decode(&payload)? {
            Response::Error {
                code,
                retriable,
                message,
            } => Err(ClientError::Daemon {
                code,
                retriable,
                message,
            }),
            response => Ok(response),
        }
    }

    /// Opens the session; returns its daemon-side id.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, protocol, or daemon failure.
    pub fn hello(&mut self, tier: Tier, quota: Option<u64>) -> Result<u64, ClientError> {
        match self.exchange(&Request::Hello { tier, quota })? {
            Response::HelloOk { session } => Ok(session),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Reads `n` bytes, verifying the daemon's offset against the
    /// bytes this client has already received — a passing sequence of
    /// `read`s *is* the exactly-once-delivery check.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, protocol, or daemon failure, or
    /// if the daemon's offset breaks contiguity.
    pub fn read(&mut self, n: u32) -> Result<Vec<u8>, ClientError> {
        match self.exchange(&Request::Read { n })? {
            Response::Data { offset, bytes } => {
                if offset != self.offset || bytes.len() != n as usize {
                    return Err(ClientError::Unexpected(Response::Data { offset, bytes }));
                }
                self.offset += bytes.len() as u64;
                Ok(bytes)
            }
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Fetches the daemon's service counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, protocol, or daemon failure.
    pub fn stat(&mut self) -> Result<StatReport, ClientError> {
        match self.exchange(&Request::Stat)? {
            Response::Stat(report) => Ok(report),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
