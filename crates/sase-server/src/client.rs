//! Blocking clients for the two stateful protocols: [`Client`] speaks
//! the line protocol (ingest + control), [`PushClient`] subscribes to
//! emission push over WebSocket. Both are plain `std::net` — usable from
//! tests, the repl's `connect` mode, and the load bench without any
//! runtime.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use sase_core::event::Event;
use sase_core::runtime::RuntimeStats;

use crate::wire::{
    decode_response, ingest_frame, read_frame, request_frame, Request, Response, TickMode,
    WireComplexEvent, WireDiagnostic,
};
use crate::ws::WsClient;
use crate::{Result, ServerError};

/// A blocking line-protocol client: one request, one response, in order,
/// over one TCP connection (= one server session; queries registered here
/// are owned by this connection).
pub struct Client {
    /// Replies are read through the buffer (one socket read per frame);
    /// requests are written to the stream underneath it.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server's listener.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        self.exchange(&request_frame(req))
    }

    /// Send one complete request frame and decode the reply.
    fn exchange(&mut self, frame: &[u8]) -> Result<Response> {
        self.stream.get_mut().write_all(frame)?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| ServerError::Io("server closed the connection".into()))?;
        match decode_response(&payload)? {
            Response::Error { code, message } => Err(ServerError::from_code(code, message)),
            resp => Ok(resp),
        }
    }

    fn protocol_err(got: &Response) -> ServerError {
        ServerError::Protocol(format!("unexpected response variant: {got:?}"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// Process a batch on `stream` (`None` = default input), returning
    /// the emissions in canonical order.
    pub fn ingest(
        &mut self,
        stream: Option<&str>,
        ticks: TickMode,
        events: &[Event],
    ) -> Result<Vec<WireComplexEvent>> {
        match self.exchange(&ingest_frame(stream, ticks, events))? {
            Response::Ingested(out) => Ok(out),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// Register a continuous query owned by this session; returns the
    /// analyzer's findings (most severe first, possibly empty).
    pub fn register(&mut self, name: &str, src: &str) -> Result<Vec<WireDiagnostic>> {
        let req = Request::Register {
            name: name.to_string(),
            src: src.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::Registered(diags) => Ok(diags),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// Unregister a query this session registered. `Ok(false)` means no
    /// such query; unregistering another session's query is a
    /// [`ServerError::NotOwner`].
    pub fn unregister(&mut self, name: &str) -> Result<bool> {
        let req = Request::Unregister {
            name: name.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::Unregistered(existed) => Ok(existed),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// Statically analyze query text without registering it.
    pub fn check(&mut self, src: &str) -> Result<Vec<WireDiagnostic>> {
        let req = Request::Check {
            src: src.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::Checked(diags) => Ok(diags),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// Runtime counters of a query.
    pub fn stats(&mut self, name: &str) -> Result<RuntimeStats> {
        let req = Request::Stats {
            name: name.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// Prometheus exposition of the deployment + server series.
    pub fn metrics(&mut self) -> Result<String> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// Names of registered queries, in registration order.
    pub fn queries(&mut self) -> Result<Vec<String>> {
        match self.roundtrip(&Request::Queries)? {
            Response::Queries(names) => Ok(names),
            other => Err(Self::protocol_err(&other)),
        }
    }

    /// EXPLAIN output of a query's plan.
    pub fn explain(&mut self, name: &str) -> Result<String> {
        let req = Request::Explain {
            name: name.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::Explain(text) => Ok(text),
            other => Err(Self::protocol_err(&other)),
        }
    }
}

/// A blocking WebSocket push subscriber. Emissions arrive as rendered
/// [`ComplexEvent`](sase_core::output::ComplexEvent) display lines.
pub struct PushClient {
    ws: WsClient<TcpStream>,
    /// Push lines that arrived while waiting for a control reply.
    pending: VecDeque<String>,
}

impl PushClient {
    /// Connect and upgrade to the push protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let host = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "server".into());
        let ws = WsClient::handshake(stream, &host, "/ws")?;
        Ok(PushClient {
            ws,
            pending: VecDeque::new(),
        })
    }

    /// Wait for a control reply, queueing any pushes that interleave.
    fn control_reply(&mut self) -> Result<String> {
        loop {
            match self.ws.recv_text()? {
                None => {
                    return Err(ServerError::Io("server closed the connection".into()));
                }
                Some(line) => {
                    if let Some(event) = line.strip_prefix("event ") {
                        self.pending.push_back(event.to_string());
                    } else {
                        return Ok(line);
                    }
                }
            }
        }
    }

    /// Subscribe to a query's emissions.
    pub fn subscribe(&mut self, query: &str) -> Result<()> {
        self.ws.send_text(&format!("subscribe {query}"))?;
        let reply = self.control_reply()?;
        if reply == format!("subscribed {query}") {
            Ok(())
        } else {
            Err(ServerError::Protocol(reply))
        }
    }

    /// Drop the subscription to a query.
    pub fn unsubscribe(&mut self, query: &str) -> Result<()> {
        self.ws.send_text(&format!("unsubscribe {query}"))?;
        let reply = self.control_reply()?;
        if reply == format!("unsubscribed {query}") {
            Ok(())
        } else {
            Err(ServerError::Protocol(reply))
        }
    }

    /// Application-level liveness probe (`ping` text command).
    pub fn ping(&mut self) -> Result<()> {
        self.ws.send_text("ping")?;
        match self.control_reply()?.as_str() {
            "pong" => Ok(()),
            other => Err(ServerError::Protocol(other.to_string())),
        }
    }

    /// The next pushed emission (the rendered `ComplexEvent`, without the
    /// `event ` prefix); `Ok(None)` when the server closes.
    pub fn next_event(&mut self) -> Result<Option<String>> {
        if let Some(line) = self.pending.pop_front() {
            return Ok(Some(line));
        }
        loop {
            match self.ws.recv_text()? {
                None => return Ok(None),
                Some(line) => {
                    if let Some(event) = line.strip_prefix("event ") {
                        return Ok(Some(event.to_string()));
                    }
                    // Stray control line (e.g. a late reply); skip it.
                }
            }
        }
    }

    /// Close the subscription connection.
    pub fn close(self) -> Result<()> {
        self.ws.close()
    }
}
