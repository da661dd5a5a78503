//! The wire server: TCP acceptor + per-connection protocol loops in front
//! of a shared [`SynthesisService`].
//!
//! Each accepted connection gets two threads. The reader runs the
//! handshake, then decodes pipelined request frames and submits them to the
//! service; each accepted request registers a completion hook
//! ([`RequestHandle::on_complete`](qsp_serve::RequestHandle::on_complete))
//! that hands its `(id, response)` to the connection's outgoing channel.
//! The writer drains that channel, renders each frame (QASM and JSON) and
//! is the only code that writes to the socket. Replies therefore leave in
//! completion order, not submission order: a slow solve never holds back a
//! later cache hit, and responses may legally overtake each other on the
//! wire (the request `id` correlates them). No thread is spawned or parked
//! per request.
//!
//! Both ends set `TCP_NODELAY`: pipelined small frames would otherwise meet
//! Nagle's algorithm on one side and delayed ACKs on the other, stalling
//! replies for tens of milliseconds.
//!
//! Tenancy is connection-scoped: the hello's tenant name is resolved
//! against the service's [`TenantPolicy`](qsp_serve::TenantPolicy) once,
//! and every request on the connection bills to that tenant's admission
//! bucket and fair-share queue. An unknown or absent tenant name falls
//! back to the default tenant (the ack names which one was resolved).

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use qsp_core::api::{RequestOptions, SynthesisReport, SynthesisRequest};
use qsp_core::{Provenance, SynthesisError};
use qsp_obs::metrics::Counter;
use qsp_serve::{RejectReason, Response, Submit, SynthesisService, DEFAULT_TENANT_NAME};

use crate::codec::{self, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::error::WireError;
use crate::proto::{ClientFrame, ServerFrame, PROTOCOL_VERSION};

/// Wire server configuration.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct WireConfig {
    /// Maximum frame payload size in bytes (both directions). Defaults to
    /// [`DEFAULT_MAX_FRAME`].
    pub max_frame: usize,
}

impl WireConfig {
    /// The default configuration.
    pub fn new() -> Self {
        WireConfig {
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// Overrides the maximum frame payload size.
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame;
        self
    }
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig::new()
    }
}

/// The `wire.*` metric slice, registered in the service's metrics registry
/// so one snapshot covers both layers.
#[derive(Debug, Clone)]
struct WireCounters {
    connections: Counter,
    frames_in: Counter,
    frames_out: Counter,
    errors: Counter,
}

impl WireCounters {
    fn new(service: &SynthesisService) -> Self {
        let metrics = service.engine().obs().metrics();
        WireCounters {
            connections: metrics.counter("wire.connections", &[]),
            frames_in: metrics.counter("wire.frames_in", &[]),
            frames_out: metrics.counter("wire.frames_out", &[]),
            errors: metrics.counter("wire.errors", &[]),
        }
    }
}

/// A clone of every live connection's socket, keyed by connection number,
/// so [`WireServer::shutdown`] can close them. A connection removes its own
/// entry when it ends.
type LiveConnections = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A TCP server exposing a [`SynthesisService`] over the framed protocol.
///
/// [`WireServer::shutdown`] (also run on drop) stops accepting, closes live
/// connections and joins every spawned thread. The underlying service is
/// *not* shut down — it is shared and may outlive the listener.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: LiveConnections,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts accepting
    /// connections against `service`.
    pub fn bind(
        addr: &str,
        service: Arc<SynthesisService>,
        config: WireConfig,
    ) -> Result<WireServer, WireError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = LiveConnections::default();
        let counters = WireCounters::new(&service);
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::spawn(move || {
                accept_loop(listener, service, config, counters, stop, conns);
            })
        };
        Ok(WireServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes live connections and joins all server
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor: `accept()` has no timeout, so poke it with
        // a throwaway connection that it will see `stop` on.
        let _ = TcpStream::connect(self.addr);
        // Close live connections so their decode loops see EOF.
        if let Ok(conns) = self.conns.lock() {
            for conn in conns.values() {
                let _ = conn.shutdown(SocketShutdown::Both);
            }
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<SynthesisService>,
    config: WireConfig,
    counters: WireCounters,
    stop: Arc<AtomicBool>,
    conns: LiveConnections,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for (number, incoming) in (0u64..).zip(listener.incoming()) {
        // Join the connections that have ended since the last accept.
        let (finished, live): (Vec<_>, Vec<_>) =
            workers.drain(..).partition(JoinHandle::is_finished);
        workers = live;
        for worker in finished {
            let _ = worker.join();
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        counters.connections.inc();
        let _ = stream.set_nodelay(true);
        if let Ok(tracked) = stream.try_clone() {
            if let Ok(mut live) = conns.lock() {
                // `shutdown` raises `stop` before it closes the tracked set,
                // so a connection that would miss that close sees it here.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                live.insert(number, tracked);
            }
        }
        let service = Arc::clone(&service);
        let counters = counters.clone();
        let conns = Arc::clone(&conns);
        let max_frame = config.max_frame;
        workers.push(thread::spawn(move || {
            serve_connection(stream, service, max_frame, counters);
            if let Ok(mut live) = conns.lock() {
                live.remove(&number);
            }
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// A frame bound for the connection's writer thread.
enum Outgoing {
    /// A connection-level frame (`hello_ack`, `rejected`, or the terminal
    /// `error`).
    Frame(ServerFrame),
    /// A settled request, rendered on the writer thread.
    Reply(u64, Response),
}

fn serve_connection(
    stream: TcpStream,
    service: Arc<SynthesisService>,
    max_frame: usize,
    counters: WireCounters,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (outgoing, queued) = mpsc::channel();
    let frames_out = counters.frames_out.clone();
    let writer = thread::spawn(move || write_loop(write_half, queued, max_frame, frames_out));
    if let Err(error) = connection_loop(&stream, &outgoing, &service, max_frame, &counters) {
        counters.errors.inc();
        // Best-effort terminal error frame; the peer may already be gone.
        let _ = outgoing.send(Outgoing::Frame(error_frame(&error)));
    }
    // The writer runs until every accepted request's hook has dropped its
    // sender (each request settled and was written), the terminal error
    // frame is out, or the socket fails.
    drop(outgoing);
    let _ = writer.join();
    // Shut the socket down explicitly: the acceptor's tracked clone holds
    // another fd on it, so a plain drop would leave the connection open and
    // the peer would never see EOF.
    let _ = stream.shutdown(SocketShutdown::Both);
}

/// The connection's only socket writer: renders and writes each outgoing
/// frame as it arrives, one `write_all` per frame.
fn write_loop(
    mut stream: TcpStream,
    queued: Receiver<Outgoing>,
    max_frame: usize,
    frames_out: Counter,
) {
    for message in queued {
        let (frame, terminal) = match message {
            Outgoing::Reply(id, response) => (response_frame(id, &response), false),
            Outgoing::Frame(frame) => {
                let terminal = matches!(frame, ServerFrame::Error { .. });
                (frame, terminal)
            }
        };
        match codec::write_frame(&mut stream, &frame.to_payload(), max_frame) {
            Ok(()) => frames_out.inc(),
            // The socket failed: stop the reader too, and let pending
            // hooks' sends fall on a closed channel.
            Err(WireError::Io(_)) => {
                let _ = stream.shutdown(SocketShutdown::Both);
                return;
            }
            // A frame over the bound is dropped; the connection stays up.
            Err(_) => {}
        }
        if terminal {
            return;
        }
    }
}

fn error_frame(error: &WireError) -> ServerFrame {
    let (code, byte_offset) = match error {
        WireError::FrameTooLarge { .. } => ("frame_too_large", None),
        WireError::Json(e) => ("bad_json", Some(e.byte_offset as u64)),
        WireError::VersionMismatch { .. } => ("version_mismatch", None),
        _ => ("protocol", None),
    };
    ServerFrame::Error {
        code: code.to_string(),
        message: error.to_string(),
        byte_offset,
    }
}

fn provenance_label(provenance: &Provenance) -> &'static str {
    match provenance {
        Provenance::Solved => "solved",
        Provenance::CacheHit { .. } => "cache_hit",
        Provenance::ReconstructedFromBatchRep { .. } => "batch_rep",
        Provenance::DedupAttach { .. } => "dedup_attach",
        _ => "unknown",
    }
}

fn report_frame(id: u64, report: &SynthesisReport) -> ServerFrame {
    let qasm = qsp_circuit::qasm::to_qasm(&report.circuit)
        .unwrap_or_else(|e| format!("// qasm rendering failed: {e}"));
    ServerFrame::Report {
        id,
        cnot_cost: report.cnot_cost as u64,
        provenance: provenance_label(&report.provenance).to_string(),
        total_ms: report.timings.total.as_secs_f64() * 1e3,
        qasm,
    }
}

fn response_frame(id: u64, response: &Response) -> ServerFrame {
    match response {
        Response::Completed(report) => report_frame(id, report),
        Response::Failed(error) => {
            let byte_offset = match error {
                SynthesisError::Json(e) => Some(e.byte_offset as u64),
                _ => None,
            };
            ServerFrame::Failed {
                id,
                message: error.to_string(),
                byte_offset,
            }
        }
        Response::Timeout => ServerFrame::Timeout { id },
        Response::Cancelled => ServerFrame::Cancelled { id },
    }
}

fn reject_reason_label(reason: RejectReason) -> &'static str {
    match reason {
        RejectReason::Throttled => "throttled",
        RejectReason::QueueFull => "queue_full",
        RejectReason::Shutdown => "shutdown",
        _ => "rejected",
    }
}

/// The connection's reader: decodes frames and submits requests until EOF
/// or a protocol error.
fn connection_loop(
    mut reader: &TcpStream,
    outgoing: &Sender<Outgoing>,
    service: &SynthesisService,
    max_frame: usize,
    counters: &WireCounters,
) -> Result<(), WireError> {
    let mut decoder = FrameDecoder::new(max_frame);
    let mut buf = [0u8; 4096];
    let mut handshaken = false;
    let mut tenant = None;
    // A send fails only once the writer has exited on a dead socket, which
    // it also shuts down, so the next read ends this loop.
    let send = |frame: ServerFrame| {
        let _ = outgoing.send(Outgoing::Frame(frame));
    };
    'read: loop {
        let n = match reader.read(&mut buf) {
            Ok(0) => break 'read,
            Ok(n) => n,
            // The shutdown path closes the socket under us; treat any read
            // error as end-of-connection rather than a protocol fault.
            Err(_) => break 'read,
        };
        decoder.feed(&buf[..n]);
        while let Some(payload) = decoder.next_frame()? {
            counters.frames_in.inc();
            let frame = ClientFrame::parse(&payload)?;
            match frame {
                ClientFrame::Hello {
                    version,
                    tenant: name,
                } => {
                    if handshaken {
                        return Err(WireError::Protocol(
                            "duplicate hello after handshake".to_string(),
                        ));
                    }
                    if version != PROTOCOL_VERSION {
                        return Err(WireError::VersionMismatch {
                            client: version,
                            server: PROTOCOL_VERSION,
                        });
                    }
                    tenant = name.as_deref().and_then(|n| service.resolve_tenant(n));
                    let resolved = tenant
                        .and_then(|id| {
                            service
                                .tenant_policy()
                                .tenants
                                .get(id.raw() as usize)
                                .cloned()
                        })
                        .map(|t| t.name)
                        .unwrap_or_else(|| DEFAULT_TENANT_NAME.to_string());
                    handshaken = true;
                    send(ServerFrame::HelloAck {
                        version: PROTOCOL_VERSION,
                        tenant: resolved,
                        max_frame: max_frame as u64,
                    });
                }
                ClientFrame::Request {
                    id,
                    target,
                    deadline_ms,
                    priority,
                } => {
                    if !handshaken {
                        return Err(WireError::Protocol(
                            "request before hello handshake".to_string(),
                        ));
                    }
                    let mut options = RequestOptions::new();
                    if let Some(tenant) = tenant {
                        options = options.with_tenant(tenant);
                    }
                    if let Some(ms) = deadline_ms {
                        options = options.with_deadline(Instant::now() + Duration::from_millis(ms));
                    }
                    if let Some(priority) = priority {
                        options = options.with_priority(priority);
                    }
                    let request = SynthesisRequest::new(target).with_options(options);
                    match service.submit(request) {
                        Submit::Accepted(handle) => {
                            let outgoing = outgoing.clone();
                            handle.on_complete(move |response| {
                                let _ = outgoing.send(Outgoing::Reply(id, response));
                            });
                        }
                        Submit::Rejected { reason } => {
                            send(ServerFrame::Rejected {
                                id,
                                reason: reject_reason_label(reason).to_string(),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use qsp_serve::ServiceConfig;

    use super::*;
    use crate::WireClient;

    fn server() -> WireServer {
        let service = Arc::new(SynthesisService::start(ServiceConfig::default()));
        WireServer::bind("127.0.0.1:0", service, WireConfig::new()).unwrap()
    }

    fn live(server: &WireServer) -> usize {
        server.conns.lock().unwrap().len()
    }

    #[test]
    fn accepted_sockets_set_nodelay() {
        let mut server = server();
        let client = WireClient::connect(server.local_addr(), None).unwrap();
        // The ack came from the connection thread, which is spawned only
        // after the accepted socket joined the tracked set.
        let tracked: Vec<bool> = server
            .conns
            .lock()
            .unwrap()
            .values()
            .map(|conn| conn.nodelay().unwrap())
            .collect();
        assert_eq!(tracked, [true], "the accepted socket sets TCP_NODELAY");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn ended_connections_leave_the_tracked_set() {
        let mut server = server();
        for _ in 0..300 {
            drop(WireClient::connect(server.local_addr(), None).unwrap());
        }
        // Each connection drops its tracked socket once its threads are
        // done; give the last few a bounded moment to finish.
        let deadline = Instant::now() + Duration::from_secs(10);
        while live(&server) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(live(&server), 0, "ended connections must not hold an fd");
        server.shutdown();
    }
}
