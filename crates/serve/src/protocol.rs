//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both encoded with the
//! bit-exact `felix_records` JSON codec (every fractional number on the
//! wire is a 16-hex-digit `f64` bit pattern, so results round-trip to the
//! byte). Frames are capped at [`MAX_FRAME`] bytes: an oversized,
//! truncated, or malformed frame yields a decode error the server answers
//! with [`Response::Error`] — never a panic, never a hang.

use felix_records::schema;
use felix_records::schema::{Doc, Hex, List, Raw, Tag, Text};
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

schema!(enum Request {
    Ping { ("op", Tag("ping")) },
    Submit { ("op", Tag("submit")), ("tenant", Text) => tenant, ("spec", Raw) => spec },
    Status { ("op", Tag("status")), ("job", Hex) => job_id },
    Cancel { ("op", Tag("cancel")), ("job", Hex) => job_id },
    Result { ("op", Tag("result")), ("job", Hex) => job_id },
    List { ("op", Tag("list")) },
    Shutdown { ("op", Tag("shutdown")) },
});

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

schema!(struct JobRow {
    ("job", Hex) => job_id, ("tenant", Text) => tenant, ("state", Text) => state,
});

schema!(enum Response {
    Pong { ("type", Tag("pong")) },
    Ack { ("type", Tag("ack")), ("job", Hex) => job_id },
    JobStatus {
        ("type", Tag("status")), ("job", Hex) => job_id, ("tenant", Text) => tenant,
        ("state", Text) => state,
    },
    JobResult { ("type", Tag("result")), ("job", Hex) => job_id, ("result", Raw) => result },
    Jobs { ("type", Tag("jobs")), ("jobs", List(Doc)) => jobs },
    Bye { ("type", Tag("bye")) },
    Busy { ("type", Tag("busy")), ("live", Hex) => live, ("limit", Hex) => limit },
    QuotaExceeded {
        ("type", Tag("quota")), ("tenant", Text) => tenant, ("live", Hex) => live,
        ("limit", Hex) => limit,
    },
    Draining { ("type", Tag("draining")) },
    Error { ("type", Tag("error")), ("message", Text) => message },
});

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
