//! A minimal blocking client for the serving protocol — used by the
//! `splatt query` CLI, the benchmark's load generators, and the
//! loopback tests.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, RequestBody, Response,
};
use std::io::{Error, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a serving endpoint; requests are issued one at a
/// time (the protocol is strictly request/response per frame).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` (anything `ToSocketAddrs` accepts), trying each
    /// resolved address for up to ten seconds.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let mut last = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, Duration::from_secs(10)) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Client { stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| Error::new(ErrorKind::InvalidInput, "no address resolved")))
    }

    /// Bound every read/write on the connection (`None` blocks forever).
    /// A timeout mid-frame desyncs the stream: drop the client after one.
    ///
    /// # Errors
    /// Propagates socket option failures.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Issue one request and block for its response.
    ///
    /// # Errors
    /// Propagates transport and framing errors — including an `Entry`
    /// body whose coordinates do not tile its order, which is rejected
    /// before anything is written; server-side failures come back as
    /// `Ok(Response::Error(..))`.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        decode_response(&self.call_frame(req)?)
    }

    /// Issue one request and return the *undecoded* response frame, for a
    /// caller that compares reply bytes rather than decoded values.
    ///
    /// # Errors
    /// Propagates transport and framing errors.
    pub fn call_frame(&mut self, req: &Request) -> std::io::Result<Vec<u8>> {
        write_frame(&mut self.stream, &encode_request(req)?)?;
        read_frame(&mut self.stream)
    }

    /// Reconstruct entries of `model` at flat `coords`.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn entries(
        &mut self,
        model: &str,
        version: u64,
        deadline_ms: u32,
        order: u8,
        coords: Vec<u32>,
    ) -> std::io::Result<Response> {
        self.call(&Request {
            deadline_ms,
            model: model.to_string(),
            version,
            body: RequestBody::Entry { order, coords },
        })
    }

    /// Reconstruct the dense slice fixing `mode` at `index`.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn slice(
        &mut self,
        model: &str,
        version: u64,
        deadline_ms: u32,
        mode: u8,
        index: u32,
    ) -> std::io::Result<Response> {
        self.call(&Request {
            deadline_ms,
            model: model.to_string(),
            version,
            body: RequestBody::Slice { mode, index },
        })
    }

    /// Top-`k` indices along `mode` against `fixed` coordinates.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn top_k(
        &mut self,
        model: &str,
        version: u64,
        deadline_ms: u32,
        mode: u8,
        k: u32,
        fixed: Vec<u32>,
    ) -> std::io::Result<Response> {
        self.call(&Request {
            deadline_ms,
            model: model.to_string(),
            version,
            body: RequestBody::TopK { mode, k, fixed },
        })
    }

    /// Fetch the server's probe profile (schema v5 JSON).
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.call(&Request {
            deadline_ms: 0,
            model: String::new(),
            version: 0,
            body: RequestBody::Stats,
        })
    }

    /// List the models the server holds.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn list(&mut self) -> std::io::Result<Response> {
        self.call(&Request {
            deadline_ms: 0,
            model: String::new(),
            version: 0,
            body: RequestBody::List,
        })
    }

    /// Ask the server to shut down cleanly.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.call(&Request {
            deadline_ms: 0,
            model: String::new(),
            version: 0,
            body: RequestBody::Shutdown,
        })
    }
}
