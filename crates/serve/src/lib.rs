//! Tuning as a service: a daemon (`felix-served`) that accepts tuning
//! jobs over TCP, queues them durably, and runs them on worker shards
//! with the full checkpoint/schedule-store stack attached.
//!
//! The design goal is the same determinism contract the rest of the
//! workspace keeps: **a daemon killed at any instant and restarted on the
//! same data directory finishes every job with byte-identical results**.
//! Three rules deliver it:
//!
//! 1. every job is WAL-logged (flushed) before it is acknowledged, so the
//!    pending set survives any crash;
//! 2. workers checkpoint after every round and derive all scheduling
//!    decisions from durable state only;
//! 3. a job's result travels in its terminal WAL record, and finalization
//!    is idempotent.
//!
//! On top of that sits the **job lifecycle** state machine
//! (`submitted → running → done | cancelled | expired | quarantined`):
//! durable cancellation honored between tuning rounds, per-job wall-clock
//! deadlines, bounded admission (queue depth + per-tenant quotas with
//! typed rejections that never touch the WAL), poison-job quarantine
//! after repeated worker crashes, graceful drain on SIGTERM/`shutdown`,
//! and WAL compaction. See `DESIGN.md` for the transition diagram and
//! the crash-safety argument per transition.
//!
//! Modules: [`protocol`] (wire format), [`spec`] (job specs), [`worker`]
//! (shards + fairness), [`server`] (the daemon), [`client`] (a blocking
//! helper).

pub mod client;
pub mod protocol;
pub mod server;
pub mod spec;
pub mod worker;

pub use client::{Client, ClientError, DEFAULT_CONNECT_TIMEOUT, DEFAULT_IO_TIMEOUT};
pub use protocol::{read_frame, write_frame, FrameError, JobRow, Request, Response, MAX_FRAME};
pub use server::{DrainHandle, ServeConfig, Server};
pub use spec::JobSpec;
pub use worker::{
    job_dir, store_path, Shard, StepOutcome, QUARANTINE_CRASHES, WAL_FILE,
};
