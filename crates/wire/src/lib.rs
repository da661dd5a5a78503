//! Networked serving for the synthesis service.
//!
//! `qsp-wire` puts [`qsp_serve::SynthesisService`] on a TCP socket behind a
//! small, dependency-free framed protocol:
//!
//! - **[`codec`]** — length-prefixed frames (4-byte big-endian length +
//!   UTF-8 JSON payload) with an incremental decoder that survives torn
//!   reads and rejects oversized frames *before* buffering them.
//! - **[`proto`]** — the typed frame model: a versioned `hello`/`hello_ack`
//!   handshake carrying the connection's tenant, pipelined `request`
//!   frames, and per-request `report`/`rejected`/`timeout`/`cancelled`/
//!   `failed` replies correlated by client-chosen ids. Amplitudes travel as
//!   exact `f64` bit patterns, so served costs are identical to in-process
//!   solves of the same targets.
//! - **[`server`]** — [`WireServer`]: an acceptor plus a reader and a
//!   writer thread per connection. Each accepted request's completion hook
//!   hands its response to the writer, which renders and writes replies in
//!   completion order, so slow solves never head-of-line-block the decode
//!   path or a later cache hit, and no thread exists per request. Both
//!   ends set `TCP_NODELAY`. Tenancy is connection-scoped: the hello's
//!   tenant name routes every request on the connection through that
//!   tenant's admission bucket and weighted-fair sub-queue in the serve
//!   layer.
//! - **[`client`]** — [`WireClient`]: a blocking client with pipelined
//!   sends and a one-shot [`call`](WireClient::call) path.
//!
//! Frame-level misbehaviour (malformed JSON — with the byte offset of the
//! offending byte, oversized frames, version mismatches, protocol-order
//! violations) is answered with a terminal typed `error` frame; the server
//! closes the connection after sending it. The server also registers a
//! `wire.*` metric slice (connections, frames in/out, errors) in the
//! service's metrics registry, so one observability snapshot covers the
//! socket and the solver.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod codec;
pub mod error;
pub mod proto;
pub mod server;

pub use client::{Handshake, WireClient};
pub use codec::{FrameDecoder, DEFAULT_MAX_FRAME, LENGTH_PREFIX_BYTES};
pub use error::WireError;
pub use proto::{ClientFrame, ServerFrame, PROTOCOL_VERSION};
pub use server::{WireConfig, WireServer};
