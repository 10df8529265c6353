//! # addict-service
//!
//! Replay-as-a-service: a resident evaluation server (and its client)
//! over the `addict-bench` job layer. The batch binaries pay trace
//! generation — seconds to minutes of storage-engine population — on
//! every invocation; a resident server pays it once per
//! `(benchmark, seed, n_xcts, small)` and serves every later job from
//! the shared in-memory [`TracePool`](addict_bench::TracePool).
//!
//! The crate adds **no** evaluation logic of its own: jobs parse into
//! [`JobSpec`](addict_bench::JobSpec) and execute through
//! [`run_job_with`](addict_bench::run_job_with) — exactly the code path
//! the batch binaries use — so a server-executed job serializes
//! byte-identical to its batch twin (asserted end-to-end by
//! `tests/service_roundtrip.rs`), whether streamed over `?wait=1` or
//! polled from the result store after a disconnect.
//!
//! | Piece | What it is |
//! |-------|------------|
//! | [`http`] | minimal hand-rolled HTTP/1.1 (no external deps), socket deadlines |
//! | [`jobs`] | job lifecycle registry: admission ledger, queue, result store |
//! | [`faults`] | injectable stalls/panics for the chaos suite (`tests/service_chaos.rs`) |
//! | [`server`] | `addict-serve`: connection + executor pools, shared trace cache |
//! | [`client`] | `addict-cli`: submit/detach/poll/cancel, retry with backoff |
//!
//! Protocol, lifecycle, and failure semantics are documented in
//! `SERVICE.md` at the repo root.

pub mod client;
pub mod faults;
pub mod http;
pub mod jobs;
pub mod server;

pub use client::{
    backoff_ms, cancel_job, get, job_result, job_status, poll_job, render_table, shutdown, submit,
    submit_detached, submit_with_retry, ServiceError,
};
pub use faults::FaultPlan;
pub use jobs::{AdmitError, JobId, JobState, Registry, RegistryConfig};
pub use server::{Server, ServerConfig, ServerHandle};
