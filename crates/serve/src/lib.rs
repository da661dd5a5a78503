//! # qsp-serve
//!
//! The deadline-aware synthesis *service*: the long-running request/response
//! front door that turns [`qsp_core::BatchSynthesizer`] from a library call
//! into something a fleet can point traffic at.
//!
//! The service speaks the workspace's unified API
//! ([`qsp_core::api`]): [`SynthesisService::submit`] takes a typed
//! [`SynthesisRequest`] — target plus per-request solver overrides,
//! [`CachePolicy`], deadline and priority — and every completion carries a
//! provenance-rich [`SynthesisReport`] ([`Response::Completed`]), so a
//! caller can tell a fresh solve from a cache hit from an in-flight dedup
//! attach, read per-stage timings, and see the exact configuration its
//! request resolved to. Cost-relevant overrides are fingerprinted into the
//! canonical class key, which keeps per-request policies *dedup-sound*: two
//! requests for the same state under different effective solver options
//! never share a solve.
//!
//! A [`SynthesisService`] owns a worker pool and wires four pieces together:
//!
//! * **A bounded submission queue with explicit backpressure and admission
//!   control** — `submit` never blocks: a request is either queued
//!   (returning a [`RequestHandle`]) or rejected with
//!   [`Submit::Rejected`]` { reason }`, where the [`RejectReason`]
//!   distinguishes per-tenant throttling from capacity backpressure from
//!   shutdown. Each tenant of the service's [`TenantPolicy`] fronts the
//!   queue with its own token bucket (refill rate + burst per
//!   [`TenantConfig`]), so a flooding tenant is turned away before it can
//!   consume shared queue capacity. Queue-depth high-water is tracked for
//!   capacity planning.
//! * **A micro-batching, deadline-aware, weighted-fair scheduler** —
//!   workers drain the queue into micro-batches under a [`SchedulerConfig`]
//!   `{ max_batch, max_wait, workers }` policy. The drain runs deficit
//!   round-robin across per-tenant sub-queues (shares proportional to
//!   [`TenantConfig::weight`]), so no tenant's backlog can starve
//!   another's; inside the drained batch, requests are served
//!   earliest-deadline-first. A request whose deadline has already expired
//!   completes with [`Response::Timeout`] without spending any solver time.
//! * **Per-class in-flight dedup** — a request whose Sec. V-B canonical
//!   class is already being solved *attaches* to that solve instead of
//!   re-entering the queue (replacing the batch engine's phase-based
//!   planning on the serving path). Attached requests get their circuit
//!   reconstructed through their own witness transform, so their
//!   `cnot_cost` is bit-identical to a solo solve. Solved classes land in
//!   the engine's sharded cache, so repeats across the service's lifetime
//!   are cache hits.
//! * **One-shot completion handles and deterministic shutdown** —
//!   [`RequestHandle::wait`]/[`RequestHandle::wait_timeout`] block on a
//!   lightweight one-shot, and [`RequestHandle::on_complete`] registers a
//!   hook that runs once, with the response, on whichever thread settles
//!   the request (at once if it already has), so a front end can track
//!   many requests without parking a thread on each; the hook must not
//!   block or panic. [`SynthesisService::shutdown`] either drains
//!   ([`Shutdown::Drain`]) or fails pending work with
//!   [`Response::Cancelled`] ([`Shutdown::Abort`]) — handles never hang,
//!   and hooks always fire.
//!
//! Observability rides on the engine's [`qsp_obs::ObsHub`]: every service
//! counter and latency histogram is a `serve.*` metric in the hub's
//! registry ([`ServiceStats`] is a typed view over it, serializable through
//! the workspace-shared [`qsp_core::json`] writer), each completed request's
//! report carries a [`RequestTrace`] span tree (queue wait → validate → key
//! → cache probe → solve → reconstruct, summing exactly to the end-to-end
//! latency) that is also head-sampled into the hub's trace ring, and
//! [`SynthesisService::obs_snapshot`] dumps the whole hub — metrics, sampled
//! traces and solver flight records — in one [`ObsSnapshot`].
//!
//! # Example
//!
//! ```
//! use qsp_serve::{ServiceConfig, Shutdown, SynthesisRequest, SynthesisService};
//! use qsp_state::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = SynthesisService::start(ServiceConfig::default());
//! let a = service.submit(SynthesisRequest::new(generators::ghz(4)?));
//! let b = service.submit(SynthesisRequest::new(generators::ghz(4)?));
//! let (a, b) = (a.handle().unwrap(), b.handle().unwrap());
//! assert_eq!(a.wait().report().unwrap().cnot_cost, 3);
//! assert_eq!(b.wait().report().unwrap().cnot_cost, 3);
//! let stats = service.shutdown(Shutdown::Drain);
//! assert_eq!(stats.completed, 2);
//! // The duplicate GHZ never triggered a second solve — its report's
//! // provenance is a cache hit or an in-flight dedup attach.
//! assert_eq!(stats.solver_runs, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod handle;
mod inflight;
mod queue;
mod service;
mod stats;
mod tenant;

pub use config::{SchedulerConfig, ServiceConfig};
pub use handle::{RequestHandle, Response};
pub use queue::{RejectReason, Submit};
pub use service::{Shutdown, SynthesisService};
pub use stats::{HistogramSnapshot, ServiceStats, TenantStats, HISTOGRAM_BUCKETS};
pub use tenant::{TenantConfig, TenantPolicy, DEFAULT_TENANT_NAME};

// The unified request/outcome contract, re-exported so service callers can
// build requests and read reports without importing qsp-core directly.
pub use qsp_core::api::{
    CachePolicy, Provenance, RequestOptions, StageTimings, SynthesisReport, SynthesisRequest,
    TenantId,
};

// The observability surface service operators read: options to turn tracing
// and the flight recorder on, the snapshot/trace types that come back out.
pub use qsp_obs::{ObsOptions, ObsSnapshot, RequestTrace, SpanKind, TraceId};
