//! A small blocking client for the daemon.
//!
//! One TCP connection, synchronous request/response. Every failure mode
//! a caller might branch on is a distinct [`ClientError`] variant:
//! admission rejections ([`ClientError::Busy`],
//! [`ClientError::QuotaExceeded`], [`ClientError::Draining`]) so callers
//! can back off and retry, [`ClientError::Timeout`] so a stalled or dead
//! daemon cannot hang a caller forever, and [`ClientError::Server`] for
//! everything the server itself rejects (unknown jobs, invalid specs).
//!
//! Timeouts make a connection *spent*: a reply may still be in flight,
//! and reading it later would desynchronize the framing. Drop the client
//! and reconnect.

use crate::protocol::{read_frame, write_frame, FrameError, JobRow, Request, Response};
use crate::spec::JobSpec;
use felix_records::{JobOutcome, Json};
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default connect timeout for [`Client::connect`].
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Default per-request read/write timeout for [`Client::connect`].
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// The connect, a request, or a [`Client::wait_done`] deadline timed
    /// out. The connection is spent; reconnect before retrying.
    Timeout,
    /// The server's global live-job bound is full; retry later.
    Busy {
        /// Live jobs at rejection time.
        live: u64,
        /// The configured bound.
        limit: u64,
    },
    /// The tenant's live-job quota is full; retry later.
    QuotaExceeded {
        /// The rejected tenant.
        tenant: String,
        /// The tenant's live jobs at rejection time.
        live: u64,
        /// The configured quota.
        limit: u64,
    },
    /// The server is draining and admits nothing new.
    Draining,
    /// The server rejected the request (unknown job, invalid spec, …).
    Server(String),
    /// The TCP transport failed (connect refused, connection reset, …).
    Transport(String),
    /// The server answered with bytes this client cannot decode, or with
    /// a response that does not fit the request.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout => write!(f, "timed out"),
            ClientError::Busy { live, limit } => {
                write!(f, "server busy: {live}/{limit} live jobs")
            }
            ClientError::QuotaExceeded { tenant, live, limit } => {
                write!(f, "tenant {tenant:?} over quota: {live}/{limit} live jobs")
            }
            ClientError::Draining => write!(f, "server is draining"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running daemon with the default timeouts
    /// ([`DEFAULT_CONNECT_TIMEOUT`], [`DEFAULT_IO_TIMEOUT`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if the daemon does not accept in time,
    /// [`ClientError::Transport`] for address or socket failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with_timeouts(addr, DEFAULT_CONNECT_TIMEOUT, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connects with explicit bounds: `connect_timeout` for the TCP
    /// handshake and `io_timeout` for each subsequent read/write (`None`
    /// disables the per-request bound).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if the handshake exceeds its bound,
    /// [`ClientError::Transport`] otherwise.
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let transport = |e: std::io::Error| ClientError::Transport(format!("connect: {e}"));
        let addr = addr
            .to_socket_addrs()
            .map_err(transport)?
            .next()
            .ok_or_else(|| ClientError::Transport("connect: no address".to_string()))?;
        let stream = TcpStream::connect_timeout(&addr, connect_timeout).map_err(|e| {
            match e.kind() {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                    ClientError::Timeout
                }
                _ => transport(e),
            }
        })?;
        stream.set_read_timeout(io_timeout).map_err(transport)?;
        stream.set_write_timeout(io_timeout).map_err(transport)?;
        let read_half = stream.try_clone().map_err(transport)?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &request.to_json())
            .map_err(|e| ClientError::Transport(format!("send: {e}")))?;
        let doc = match read_frame(&mut self.reader) {
            Ok(doc) => doc,
            Err(FrameError::TimedOut) => return Err(ClientError::Timeout),
            Err(FrameError::Closed) => {
                return Err(ClientError::Transport("server closed the connection".to_string()))
            }
            Err(e) => return Err(ClientError::Protocol(e.to_string())),
        };
        match Response::from_json(&doc).map_err(ClientError::Protocol)? {
            Response::Error { message } => Err(ClientError::Server(message)),
            Response::Busy { live, limit } => Err(ClientError::Busy { live, limit }),
            Response::QuotaExceeded { tenant, live, limit } => {
                Err(ClientError::QuotaExceeded { tenant, live, limit })
            }
            Response::Draining => Err(ClientError::Draining),
            response => Ok(response),
        }
    }

    fn unexpected<T>(other: Response) -> Result<T, ClientError> {
        Err(ClientError::Protocol(format!("unexpected response {other:?}")))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns transport errors or an unexpected response.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Client::unexpected(other),
        }
    }

    /// Submits a job; returns its id once the server has it durably
    /// queued.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] / [`ClientError::QuotaExceeded`] /
    /// [`ClientError::Draining`] for admission rejections (nothing was
    /// queued — safe to retry later), [`ClientError::Server`] for
    /// validation failures.
    pub fn submit(&mut self, tenant: &str, spec: &JobSpec) -> Result<u64, ClientError> {
        let request = Request::Submit { tenant: tenant.to_string(), spec: spec.to_json() };
        match self.call(&request)? {
            Response::Ack { job_id } => Ok(job_id),
            other => Client::unexpected(other),
        }
    }

    /// One job's state: `"pending"`, `"cancelling"`, `"running"`,
    /// `"done"`, `"cancelled"`, `"expired"`, or `"quarantined"`.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Server`] for unknown jobs.
    pub fn status(&mut self, job_id: u64) -> Result<String, ClientError> {
        match self.call(&Request::Status { job_id })? {
            Response::JobStatus { state, .. } => Ok(state),
            other => Client::unexpected(other),
        }
    }

    /// Durably requests a job's cancellation; returns its state
    /// afterwards (`"cancelling"` until the worker finalizes it, or the
    /// terminal state it already reached). Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Server`] for unknown jobs.
    pub fn cancel(&mut self, job_id: u64) -> Result<String, ClientError> {
        match self.call(&Request::Cancel { job_id })? {
            Response::JobStatus { state, .. } => Ok(state),
            other => Client::unexpected(other),
        }
    }

    /// A terminal job's result document (partial for cancelled/expired
    /// jobs, an error report for quarantined ones).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Server`] while the job is still live, or
    /// for unknown jobs.
    pub fn result(&mut self, job_id: u64) -> Result<Json, ClientError> {
        match self.call(&Request::Result { job_id })? {
            Response::JobResult { result, .. } => Ok(result),
            other => Client::unexpected(other),
        }
    }

    /// Every job the server knows, in submission order.
    ///
    /// # Errors
    ///
    /// Returns transport errors or an unexpected response.
    pub fn list(&mut self) -> Result<Vec<JobRow>, ClientError> {
        match self.call(&Request::List)? {
            Response::Jobs { jobs } => Ok(jobs),
            other => Client::unexpected(other),
        }
    }

    /// Asks the daemon to drain and stop; the connection is spent
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns transport errors or an unexpected response.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Client::unexpected(other),
        }
    }

    /// Polls until the job reaches **any** terminal state (the
    /// [`JobOutcome::state`] of one of [`JobOutcome::ALL`]), then returns
    /// that state and the job's result document.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] once `timeout` elapses without the job
    /// going terminal (the connection itself stays usable — the deadline
    /// is enforced between polls); [`ClientError::Server`] for unknown
    /// jobs.
    pub fn wait_done(
        &mut self,
        job_id: u64,
        timeout: Duration,
    ) -> Result<(String, Json), ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let state = self.status(job_id)?;
            if JobOutcome::ALL.iter().any(|outcome| outcome.state() == state) {
                let result = self.result(job_id)?;
                return Ok((state, result));
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    }
}
