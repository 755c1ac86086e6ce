//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both encoded with the
//! bit-exact `felix_records` JSON codec (every fractional number on the
//! wire is a 16-hex-digit `f64` bit pattern, so results round-trip to the
//! byte). Frames are capped at [`MAX_FRAME`] bytes: an oversized,
//! truncated, or malformed frame yields a decode error the server answers
//! with [`Response::Error`] — never a panic, never a hang.

use felix_records::Json;
use std::io::{BufRead, Read};

/// Hard cap on one frame (request or response line), newline included.
/// Far above any legitimate message, far below anything that could wedge
/// the server: a client streaming garbage hits the cap and is cut off.
pub const MAX_FRAME: usize = 1 << 20;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a tuning job. `spec` is the [`crate::spec::JobSpec`]
    /// document; it travels opaquely here and is validated by the server.
    Submit {
        /// Owning tenant: names its schedule-store file and its fairness
        /// share. The server admits 1 to 32 bytes of `[A-Za-z0-9_-]`.
        tenant: String,
        /// The job spec document.
        spec: Json,
    },
    /// Query one job's state.
    Status {
        /// The job to query.
        job_id: u64,
    },
    /// Durably request a job's cancellation. The request is WAL-logged
    /// before it is acknowledged; a worker honors it between tuning
    /// rounds (checkpointing the partial result), so the answer is the
    /// job's state — `"cancelling"` until the terminal `"cancelled"`
    /// record lands. Idempotent, including against terminal jobs.
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Fetch one terminal job's result document (partial for
    /// cancelled/expired jobs, an error report for quarantined ones).
    Result {
        /// The job to fetch.
        job_id: u64,
    },
    /// List every job the server knows about.
    List,
    /// Ask the daemon to drain: stop admitting, let in-flight jobs finish
    /// their current round (checkpointed), then exit. Unfinished jobs
    /// resume on the next start.
    Shutdown,
}

impl Request {
    /// Serializes the request as a single JSON line (no newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj(vec![("op", Json::Str("ping".to_string()))]),
            Request::Submit { tenant, spec } => Json::obj(vec![
                ("op", Json::Str("submit".to_string())),
                ("tenant", Json::Str(tenant.clone())),
                ("spec", spec.clone()),
            ]),
            Request::Status { job_id } => Json::obj(vec![
                ("op", Json::Str("status".to_string())),
                ("job", Json::u64_hex(*job_id)),
            ]),
            Request::Cancel { job_id } => Json::obj(vec![
                ("op", Json::Str("cancel".to_string())),
                ("job", Json::u64_hex(*job_id)),
            ]),
            Request::Result { job_id } => Json::obj(vec![
                ("op", Json::Str("result".to_string())),
                ("job", Json::u64_hex(*job_id)),
            ]),
            Request::List => Json::obj(vec![("op", Json::Str("list".to_string()))]),
            Request::Shutdown => Json::obj(vec![("op", Json::Str("shutdown".to_string()))]),
        }
    }

    /// Decodes a request document; `Err` carries a client-facing message.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request has no \"op\" field")?;
        let job = |doc: &Json| {
            doc.get("job")
                .and_then(Json::as_u64_hex)
                .ok_or_else(|| format!("\"{op}\" needs a hex \"job\" field"))
        };
        match op {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit {
                tenant: doc
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or("\"submit\" needs a \"tenant\" field")?
                    .to_string(),
                spec: doc.get("spec").ok_or("\"submit\" needs a \"spec\" field")?.clone(),
            }),
            "status" => Ok(Request::Status { job_id: job(doc)? }),
            "cancel" => Ok(Request::Cancel { job_id: job(doc)? }),
            "result" => Ok(Request::Result { job_id: job(doc)? }),
            "list" => Ok(Request::List),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// One job's row in a [`Response::Jobs`] listing.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRow {
    /// Queue-wide job id.
    pub job_id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// `"pending"`, `"cancelling"`, `"running"`, or a terminal state:
    /// `"done"`, `"cancelled"`, `"expired"`, `"quarantined"`.
    pub state: String,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The job is durably queued (its WAL line is flushed).
    Ack {
        /// Assigned job id.
        job_id: u64,
    },
    /// One job's state.
    JobStatus {
        /// The queried job.
        job_id: u64,
        /// Owning tenant.
        tenant: String,
        /// `"pending"`, `"cancelling"`, `"running"`, or a terminal
        /// state: `"done"`, `"cancelled"`, `"expired"`, `"quarantined"`.
        state: String,
    },
    /// A finished job's result document (latencies as `f64` bit patterns).
    JobResult {
        /// The queried job.
        job_id: u64,
        /// The result document as finalized by the worker.
        result: Json,
    },
    /// Every known job.
    Jobs {
        /// One row per job, in submission order.
        jobs: Vec<JobRow>,
    },
    /// Shutdown acknowledged.
    Bye,
    /// Admission control: the queue is at its global depth bound. The
    /// submission was NOT queued (and nothing was written to the WAL) —
    /// retry after live jobs finish.
    Busy {
        /// Live (non-terminal) jobs in the queue right now.
        live: u64,
        /// The configured bound.
        limit: u64,
    },
    /// Admission control: this tenant is at its in-flight quota. The
    /// submission was NOT queued; retry after the tenant's live jobs
    /// finish.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: String,
        /// The tenant's live (non-terminal) jobs right now.
        live: u64,
        /// The configured per-tenant bound.
        limit: u64,
    },
    /// The daemon is draining (a `shutdown` or SIGTERM arrived) and no
    /// longer admits jobs. The submission was NOT queued.
    Draining,
    /// The request failed; the connection stays usable.
    Error {
        /// Client-facing reason.
        message: String,
    },
}

impl Response {
    /// Serializes the response as a single JSON line (no newline).
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong => Json::obj(vec![("type", Json::Str("pong".to_string()))]),
            Response::Ack { job_id } => Json::obj(vec![
                ("type", Json::Str("ack".to_string())),
                ("job", Json::u64_hex(*job_id)),
            ]),
            Response::JobStatus { job_id, tenant, state } => Json::obj(vec![
                ("type", Json::Str("status".to_string())),
                ("job", Json::u64_hex(*job_id)),
                ("tenant", Json::Str(tenant.clone())),
                ("state", Json::Str(state.clone())),
            ]),
            Response::JobResult { job_id, result } => Json::obj(vec![
                ("type", Json::Str("result".to_string())),
                ("job", Json::u64_hex(*job_id)),
                ("result", result.clone()),
            ]),
            Response::Jobs { jobs } => Json::obj(vec![
                ("type", Json::Str("jobs".to_string())),
                (
                    "jobs",
                    Json::Arr(
                        jobs.iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("job", Json::u64_hex(r.job_id)),
                                    ("tenant", Json::Str(r.tenant.clone())),
                                    ("state", Json::Str(r.state.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Bye => Json::obj(vec![("type", Json::Str("bye".to_string()))]),
            Response::Busy { live, limit } => Json::obj(vec![
                ("type", Json::Str("busy".to_string())),
                ("live", Json::u64_hex(*live)),
                ("limit", Json::u64_hex(*limit)),
            ]),
            Response::QuotaExceeded { tenant, live, limit } => Json::obj(vec![
                ("type", Json::Str("quota".to_string())),
                ("tenant", Json::Str(tenant.clone())),
                ("live", Json::u64_hex(*live)),
                ("limit", Json::u64_hex(*limit)),
            ]),
            Response::Draining => {
                Json::obj(vec![("type", Json::Str("draining".to_string()))])
            }
            Response::Error { message } => Json::obj(vec![
                ("type", Json::Str("error".to_string())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Decodes a response document; `Err` on anything structurally off.
    pub fn from_json(doc: &Json) -> Result<Response, String> {
        let ty = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or("response has no \"type\" field")?;
        let job = |doc: &Json| {
            doc.get("job")
                .and_then(Json::as_u64_hex)
                .ok_or_else(|| format!("\"{ty}\" response needs a hex \"job\" field"))
        };
        match ty {
            "pong" => Ok(Response::Pong),
            "ack" => Ok(Response::Ack { job_id: job(doc)? }),
            "status" => Ok(Response::JobStatus {
                job_id: job(doc)?,
                tenant: doc
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or("\"status\" response needs \"tenant\"")?
                    .to_string(),
                state: doc
                    .get("state")
                    .and_then(Json::as_str)
                    .ok_or("\"status\" response needs \"state\"")?
                    .to_string(),
            }),
            "result" => Ok(Response::JobResult {
                job_id: job(doc)?,
                result: doc.get("result").ok_or("\"result\" response needs \"result\"")?.clone(),
            }),
            "jobs" => {
                let mut jobs = Vec::new();
                for row in doc
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or("\"jobs\" response needs a \"jobs\" array")?
                {
                    jobs.push(JobRow {
                        job_id: row
                            .get("job")
                            .and_then(Json::as_u64_hex)
                            .ok_or("job row needs a hex \"job\"")?,
                        tenant: row
                            .get("tenant")
                            .and_then(Json::as_str)
                            .ok_or("job row needs \"tenant\"")?
                            .to_string(),
                        state: row
                            .get("state")
                            .and_then(Json::as_str)
                            .ok_or("job row needs \"state\"")?
                            .to_string(),
                    });
                }
                Ok(Response::Jobs { jobs })
            }
            "bye" => Ok(Response::Bye),
            "busy" => {
                let field = |name: &str| {
                    doc.get(name)
                        .and_then(Json::as_u64_hex)
                        .ok_or(format!("\"busy\" response needs \"{name}\""))
                };
                Ok(Response::Busy { live: field("live")?, limit: field("limit")? })
            }
            "quota" => {
                let field = |name: &str| {
                    doc.get(name)
                        .and_then(Json::as_u64_hex)
                        .ok_or(format!("\"quota\" response needs \"{name}\""))
                };
                Ok(Response::QuotaExceeded {
                    tenant: doc
                        .get("tenant")
                        .and_then(Json::as_str)
                        .ok_or("\"quota\" response needs \"tenant\"")?
                        .to_string(),
                    live: field("live")?,
                    limit: field("limit")?,
                })
            }
            "draining" => Ok(Response::Draining),
            "error" => Ok(Response::Error {
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("\"error\" response needs \"message\"")?
                    .to_string(),
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The line exceeded [`MAX_FRAME`] bytes; the connection must be
    /// dropped (the rest of the oversized line is unread garbage).
    Oversized,
    /// The socket's read timeout elapsed before a full frame arrived.
    /// The connection may hold a partial frame and must be dropped, not
    /// retried — the next read would splice two frames together.
    TimedOut,
    /// The line was not valid JSON, or the connection died mid-line.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized => write!(f, "frame exceeds {MAX_FRAME} bytes"),
            FrameError::TimedOut => write!(f, "timed out waiting for a frame"),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

/// Reads one newline-terminated JSON frame, enforcing [`MAX_FRAME`].
///
/// A clean EOF before any byte is [`FrameError::Closed`]; EOF mid-line is
/// [`FrameError::Malformed`] (the torn tail of a dead peer — exactly the
/// WAL rule applied to the socket).
///
/// # Errors
///
/// Returns a [`FrameError`] as above; I/O errors map to `Malformed`.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Json, FrameError> {
    let mut line = Vec::new();
    let mut limited = reader.take(MAX_FRAME as u64 + 1);
    match limited.read_until(b'\n', &mut line) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e)
            if e.kind() == std::io::ErrorKind::TimedOut
                || e.kind() == std::io::ErrorKind::WouldBlock =>
        {
            // A socket read timeout surfaces as TimedOut (or WouldBlock,
            // platform-dependently); give it its own variant so clients
            // can distinguish a hung daemon from a hostile one.
            return Err(FrameError::TimedOut);
        }
        Err(e) => return Err(FrameError::Malformed(e.to_string())),
    }
    if line.len() > MAX_FRAME {
        return Err(FrameError::Oversized);
    }
    let Some(line) = line.strip_suffix(b"\n") else {
        return Err(FrameError::Malformed("frame not newline-terminated".to_string()));
    };
    let text = std::str::from_utf8(line)
        .map_err(|e| FrameError::Malformed(e.to_string()))?;
    Json::parse(text).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Writes one frame: the document plus the terminating newline, flushed.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_frame(writer: &mut impl std::io::Write, doc: &Json) -> std::io::Result<()> {
    let mut line = doc.write();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}
