//! A blocking wire client.
//!
//! [`WireClient::connect`] performs the hello/ack handshake; after that,
//! [`WireClient::send_request`] pipelines requests (each tagged with a
//! client-assigned id) and [`WireClient::recv`] reads response frames as
//! the server settles them — possibly out of submission order; match on
//! [`ServerFrame::request_id`] to correlate. [`WireClient::call`] is the
//! convenience one-request-one-response path for unpipelined use.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use qsp_state::SparseState;

use crate::codec::{self, DEFAULT_MAX_FRAME};
use crate::error::WireError;
use crate::proto::{ClientFrame, ServerFrame, PROTOCOL_VERSION};

/// What the server's `hello_ack` negotiated for this connection.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Handshake {
    /// The protocol version both sides speak.
    pub version: u32,
    /// The tenant the connection resolved to on the server (`"default"`
    /// when no or an unknown tenant was named).
    pub tenant: String,
    /// The server's maximum frame payload size.
    pub max_frame: u64,
}

/// A blocking client connection to a [`WireServer`](crate::WireServer).
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    handshake: Handshake,
    max_frame: usize,
    next_id: u64,
}

impl WireClient {
    /// Connects, sends the hello (with the optional tenant name) and waits
    /// for the server's ack.
    ///
    /// # Errors
    ///
    /// [`WireError::VersionMismatch`] if the server speaks another
    /// protocol version; [`WireError::Remote`] if the server answered the
    /// hello with a typed error frame; [`WireError::Protocol`] on any
    /// other non-ack reply.
    pub fn connect(addr: impl ToSocketAddrs, tenant: Option<&str>) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        // Pipelined requests are small frames: without this, Nagle's
        // algorithm holds each one back until the server's delayed ACK.
        stream.set_nodelay(true)?;
        let mut client = WireClient {
            stream,
            handshake: Handshake {
                version: PROTOCOL_VERSION,
                tenant: String::new(),
                max_frame: DEFAULT_MAX_FRAME as u64,
            },
            max_frame: DEFAULT_MAX_FRAME,
            next_id: 0,
        };
        let hello = ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.map(str::to_string),
        };
        client.send_frame(&hello)?;
        match client.recv()? {
            ServerFrame::HelloAck {
                version,
                tenant,
                max_frame,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(WireError::VersionMismatch {
                        client: PROTOCOL_VERSION,
                        server: version,
                    });
                }
                client.handshake = Handshake {
                    version,
                    tenant,
                    max_frame,
                };
                // Honour the server's (possibly tighter) frame bound for
                // everything we send from here on.
                client.max_frame = client.max_frame.min(max_frame as usize);
                Ok(client)
            }
            other => Err(WireError::Protocol(format!(
                "expected hello_ack, got {other:?}"
            ))),
        }
    }

    /// What the handshake negotiated.
    pub fn handshake(&self) -> &Handshake {
        &self.handshake
    }

    /// The local socket address of this connection.
    pub fn local_addr(&self) -> Result<SocketAddr, WireError> {
        Ok(self.stream.local_addr()?)
    }

    /// Sends one request frame without waiting for its response
    /// (pipelined). Returns the id assigned to the request.
    pub fn send_request(
        &mut self,
        target: &SparseState,
        deadline_ms: Option<u64>,
        priority: Option<u8>,
    ) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_frame(&ClientFrame::Request {
            id,
            target: target.clone(),
            deadline_ms,
            priority,
        })?;
        Ok(id)
    }

    /// Reads the next server frame, blocking until one arrives.
    ///
    /// A received connection-level error frame is surfaced as
    /// [`WireError::Remote`]; a closed connection as
    /// [`WireError::Truncated`].
    pub fn recv(&mut self) -> Result<ServerFrame, WireError> {
        match codec::read_frame(&mut self.stream, self.max_frame)? {
            Some(payload) => match ServerFrame::parse(&payload)? {
                ServerFrame::Error {
                    code,
                    message,
                    byte_offset,
                } => Err(WireError::Remote {
                    code,
                    message,
                    byte_offset,
                }),
                frame => Ok(frame),
            },
            None => Err(WireError::Truncated),
        }
    }

    /// Sends one request and blocks for its response frame. Intended for
    /// unpipelined callers — it assumes no other requests are in flight
    /// (any stray frame for another id is a protocol error).
    pub fn call(
        &mut self,
        target: &SparseState,
        deadline_ms: Option<u64>,
        priority: Option<u8>,
    ) -> Result<ServerFrame, WireError> {
        let id = self.send_request(target, deadline_ms, priority)?;
        let frame = self.recv()?;
        if frame.request_id() != Some(id) {
            return Err(WireError::Protocol(format!(
                "response correlates to id {:?}, expected {id}",
                frame.request_id()
            )));
        }
        Ok(frame)
    }

    /// Writes a raw frame payload, bypassing the typed frame model. Test
    /// and tooling hook — lets callers send deliberately malformed
    /// payloads to exercise the server's error surface.
    pub fn send_raw(&mut self, payload: &str) -> Result<(), WireError> {
        codec::write_frame(&mut self.stream, payload, self.max_frame)
    }

    fn send_frame(&mut self, frame: &ClientFrame) -> Result<(), WireError> {
        codec::write_frame(&mut self.stream, &frame.to_payload(), self.max_frame)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use qsp_serve::{ServiceConfig, SynthesisService};

    use super::*;
    use crate::{WireConfig, WireServer};

    #[test]
    fn connect_sets_nodelay() {
        let service = Arc::new(SynthesisService::start(ServiceConfig::default()));
        let mut server = WireServer::bind("127.0.0.1:0", service, WireConfig::new()).unwrap();
        let client = WireClient::connect(server.local_addr(), None).unwrap();
        assert!(
            client.stream.nodelay().unwrap(),
            "pipelined frames must not wait on Nagle's algorithm"
        );
        drop(client);
        server.shutdown();
    }
}
