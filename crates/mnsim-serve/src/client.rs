//! A thin synchronous client for the session server.
//!
//! Wraps a unix-socket connection with the [`SCHEMA_VERSION`] handshake
//! and a line-oriented call helper. Used by `repro client` and the
//! integration tests; applications embedding MNSIM directly should use
//! [`Session`](mnsim_core::simulator::Session) instead of going through
//! the wire.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;

use mnsim_obs::{parse_json, JsonValue};

use crate::protocol::{hello_line, read_line_bounded, SCHEMA_VERSION};

/// One handshaken connection to a serving socket.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// Everything the server sent back for one request: the streamed
/// progress events (in arrival order) and the final response line.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// `event` lines for this request id, verbatim.
    pub events: Vec<String>,
    /// The `response` line, verbatim.
    pub response: String,
}

impl Client {
    /// Connects to the unix socket at `path` and performs the
    /// handshake.
    ///
    /// # Errors
    ///
    /// Returns a message on connect failure, on a schema-version
    /// rejection (the server's typed error is embedded), or on a
    /// malformed handshake reply.
    pub fn connect(path: &str) -> Result<Client, String> {
        let stream =
            UnixStream::connect(path).map_err(|e| format!("cannot connect to `{path}`: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        client.send_line(&hello_line())?;
        let reply = client
            .recv_line()?
            .ok_or_else(|| "server closed the connection during handshake".to_string())?;
        let value = parse_json(&reply).map_err(|e| format!("bad handshake reply: {e}"))?;
        match value.get("type").and_then(JsonValue::as_str) {
            Some("hello_ok") => {
                let version = value.get("schema_version").and_then(JsonValue::as_u64);
                if version == Some(SCHEMA_VERSION) {
                    Ok(client)
                } else {
                    Err(format!(
                        "server speaks schema_version {version:?}, client {SCHEMA_VERSION}"
                    ))
                }
            }
            _ => Err(format!("handshake rejected: {reply}")),
        }
    }

    /// Writes one protocol line.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure as a message.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send failed: {e}"))?;
        self.writer.flush().map_err(|e| format!("send failed: {e}"))
    }

    /// Reads one protocol line of at most
    /// [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES); `None` on
    /// server EOF.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure, an oversize line included, as a
    /// message.
    pub fn recv_line(&mut self) -> Result<Option<String>, String> {
        read_line_bounded(&mut self.reader).map_err(|e| format!("recv failed: {e}"))
    }

    /// Sends `request_line` and reads until its `response` arrives,
    /// collecting the streamed `event` lines on the way. Lines for
    /// other request ids (pipelined calls) are collected too — this
    /// helper is for the one-request-at-a-time pattern; pipelining
    /// callers should drive [`Client::send_line`] /
    /// [`Client::recv_line`] directly.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or server EOF before the
    /// response. A server-side error response is an `Ok` outcome — the
    /// typed payload is in [`CallOutcome::response`].
    pub fn call(&mut self, request_line: &str) -> Result<CallOutcome, String> {
        self.send_line(request_line)?;
        let mut events = Vec::new();
        loop {
            let line = self
                .recv_line()?
                .ok_or_else(|| "server closed the connection before responding".to_string())?;
            let value = parse_json(&line).map_err(|e| format!("bad server line: {e}"))?;
            match value.get("type").and_then(JsonValue::as_str) {
                Some("response") => {
                    return Ok(CallOutcome {
                        events,
                        response: line,
                    })
                }
                _ => events.push(line),
            }
        }
    }

    /// Asks the server to shut down (fire and forget).
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure as a message.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send_line("{\"type\":\"shutdown\"}")
    }
}
