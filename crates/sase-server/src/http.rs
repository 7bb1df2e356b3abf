//! A deliberately small HTTP/1.1 server half: enough to parse one
//! request (request line, headers, `Content-Length` body), serve the four
//! endpoints, and upgrade to WebSocket — no external dependency, no
//! keep-alive (`Connection: close` on every response).
//!
//! ## Endpoints
//!
//! | route | body | effect |
//! |-------|------|--------|
//! | `POST /ingest[?stream=S&ticks=server]` | one event per line: `TYPE ts v1 v2 ...` | process the batch; respond with emissions, one per line |
//! | `POST /query?name=N` | query source text | analyze + register; respond with diagnostics, one per line |
//! | `GET /stats[?query=N]` | — | runtime counters, `name value` per line |
//! | `GET /queries` | — | registered query names, one per line |
//! | `GET /metrics` | — | Prometheus exposition: deployment + server series |
//! | `GET /ws` + `Upgrade: websocket` | — | RFC 6455 upgrade to the push protocol (see [`crate::ws`]) |
//!
//! Ingest lines use whitespace-separated values matched positionally
//! against the event type's schema (string attributes therefore cannot
//! contain whitespace over this transport; use the line protocol for
//! arbitrary payloads). With `ticks=server` the timestamp column is
//! ignored (write `-`) and the server assigns monotonic ticks.

use std::collections::HashMap;
use std::io::{BufRead, Write};

use sase_core::event::Event;
use sase_core::value::{Value, ValueType};
use sase_obs::render_prometheus;

use crate::server::Ctx;
use crate::wire::TickMode;
use crate::{Result, ServerError};

/// Cap on request head + body, same spirit as the line protocol's frame
/// cap.
const MAX_HTTP_BODY: usize = 8 * 1024 * 1024;
const MAX_HTTP_HEAD: usize = 64 * 1024;

/// One parsed request.
pub(crate) struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub params: HashMap<String, String>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn wants_websocket(&self) -> bool {
        self.header("Upgrade")
            .is_some_and(|u| u.eq_ignore_ascii_case("websocket"))
    }
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Both bytes must be hex digits: `from_str_radix` alone
                // would also take a sign, decoding `%+5` as 0x05.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Read one request from `r` (which must already include any sniffed
/// prefix bytes via [`std::io::Read::chain`]). `Ok(None)` means the peer
/// closed before sending anything.
///
/// The head is taken from `r`'s buffer a line at a time, so it costs one
/// underlying read per buffer fill, and nothing past the head is consumed:
/// bytes the peer sent behind it (a body, or the first WebSocket frame
/// after an upgrade request) stay in `r` for the next reader.
pub(crate) fn read_request(r: &mut impl BufRead) -> Result<Option<Request>> {
    let mut head = Vec::with_capacity(512);
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() > MAX_HTTP_HEAD {
            return Err(ServerError::Protocol("oversized request head".into()));
        }
        match r.fill_buf() {
            Ok([]) => {
                if head.is_empty() {
                    return Ok(None);
                }
                return Err(ServerError::Protocol("request head truncated".into()));
            }
            Ok(buf) => {
                let line = buf
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(buf.len(), |i| i + 1);
                let take = line.min(MAX_HTTP_HEAD + 1 - head.len());
                head.extend_from_slice(&buf[..take]);
                r.consume(take);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let text = String::from_utf8_lossy(&head);
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServerError::Protocol("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ServerError::Protocol("request line has no target".into()))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut params = HashMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(percent_decode(k), percent_decode(v));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("Content-Length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_HTTP_BODY {
        return Err(ServerError::Protocol(format!(
            "body of {content_length} bytes exceeds cap {MAX_HTTP_BODY}"
        )));
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < body.len() {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(ServerError::Protocol("request body truncated".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(Request {
        method,
        path: path.to_string(),
        params,
        headers,
        body,
    }))
}

/// Write one response and flush. Every response closes the connection.
pub(crate) fn respond(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

fn respond_error(w: &mut impl Write, e: &ServerError) -> std::io::Result<()> {
    let (status, reason) = match e {
        ServerError::UnknownQuery(_) => (404, "Not Found"),
        ServerError::ShuttingDown | ServerError::AtCapacity => (503, "Service Unavailable"),
        _ => (400, "Bad Request"),
    };
    respond(
        w,
        status,
        reason,
        "text/plain; charset=utf-8",
        &format!("{e}\n"),
    )
}

/// Render [`RuntimeStats`](sase_core::runtime::RuntimeStats) as
/// `name value` lines, one counter per line.
pub(crate) fn render_stats(s: &sase_core::runtime::RuntimeStats) -> String {
    s.rows()
        .iter()
        .map(|(label, value, _)| format!("{label} {value}\n"))
        .collect()
}

/// Parse one `TYPE ts v1 v2 ...` ingest line against the deployment's
/// schemas.
pub(crate) fn parse_ingest_line(ctx: &Ctx, line: &str) -> Result<Event> {
    let mut tokens = line.split_whitespace();
    let type_name = tokens
        .next()
        .ok_or_else(|| ServerError::Protocol("empty ingest line".into()))?;
    let schema = ctx
        .schemas
        .schema_by_name(type_name)
        .ok_or_else(|| ServerError::Protocol(format!("unknown event type `{type_name}`")))?;
    let ts_token = tokens
        .next()
        .ok_or_else(|| ServerError::Protocol(format!("line `{line}` has no timestamp")))?;
    let ts: u64 = if ts_token == "-" {
        0
    } else {
        ts_token.parse().map_err(|_| {
            ServerError::Protocol(format!("bad timestamp `{ts_token}` in line `{line}`"))
        })?
    };
    let mut values = Vec::with_capacity(schema.arity());
    for decl in &schema.attributes {
        let token = tokens.next().ok_or_else(|| {
            ServerError::Protocol(format!(
                "line `{line}` is missing value for `{}`",
                decl.name
            ))
        })?;
        let value = match decl.ty {
            ValueType::Int => token.parse::<i64>().map(Value::Int).map_err(|_| {
                ServerError::Protocol(format!("`{token}` is not an Int for `{}`", decl.name))
            })?,
            ValueType::Float => token.parse::<f64>().map(Value::Float).map_err(|_| {
                ServerError::Protocol(format!("`{token}` is not a Float for `{}`", decl.name))
            })?,
            ValueType::Bool => token.parse::<bool>().map(Value::Bool).map_err(|_| {
                ServerError::Protocol(format!("`{token}` is not a Bool for `{}`", decl.name))
            })?,
            ValueType::Str => Value::str(token),
        };
        values.push(value);
    }
    if let Some(extra) = tokens.next() {
        return Err(ServerError::Protocol(format!(
            "trailing value `{extra}` in line `{line}`"
        )));
    }
    ctx.schemas
        .build_event(type_name, ts, values)
        .map_err(|e| ServerError::Engine(e.to_string()))
}

/// What became of an HTTP connection after its one request.
pub(crate) enum HttpOutcome {
    /// Request answered; close the socket.
    Done,
    /// A valid WebSocket upgrade: the `101` has been written and the raw
    /// socket now speaks RFC 6455 — the caller runs the push session.
    Upgrade,
}

/// Serve exactly one HTTP request already read from the connection,
/// writing the response to `w`.
pub(crate) fn handle_request(ctx: &Ctx, req: &Request, w: &mut impl Write) -> Result<HttpOutcome> {
    if req.wants_websocket() {
        ctx.metrics.http_requests("/ws").inc();
        return match (req.method.as_str(), req.header("Sec-WebSocket-Key")) {
            ("GET", Some(key)) => {
                let accept = crate::ws::accept_key(key);
                let head = format!(
                    "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\
                     Connection: Upgrade\r\nSec-WebSocket-Accept: {accept}\r\n\r\n"
                );
                w.write_all(head.as_bytes())?;
                w.flush()?;
                Ok(HttpOutcome::Upgrade)
            }
            _ => {
                respond(
                    w,
                    400,
                    "Bad Request",
                    "text/plain; charset=utf-8",
                    "websocket upgrade requires GET and Sec-WebSocket-Key\n",
                )?;
                Ok(HttpOutcome::Done)
            }
        };
    }
    let route = (req.method.as_str(), req.path.as_str());
    let result: Result<String> = match route {
        ("POST", "/ingest") => handle_ingest(ctx, req),
        ("POST", "/query") => handle_register(ctx, req),
        ("GET", "/stats") => handle_stats(ctx, req),
        ("GET", "/queries") => {
            ctx.metrics.http_requests("/queries").inc();
            ctx.deployment.queries().map(|names| {
                let mut out = names.join("\n");
                if !out.is_empty() {
                    out.push('\n');
                }
                out
            })
        }
        ("GET", "/metrics") => {
            ctx.metrics.http_requests("/metrics").inc();
            ctx.deployment
                .metrics()
                .map(|snap| render_prometheus(&snap))
        }
        (_, "/ingest" | "/query" | "/stats" | "/queries" | "/metrics") => {
            respond(
                w,
                405,
                "Method Not Allowed",
                "text/plain; charset=utf-8",
                "method not allowed\n",
            )?;
            return Ok(HttpOutcome::Done);
        }
        _ => {
            respond(
                w,
                404,
                "Not Found",
                "text/plain; charset=utf-8",
                "no such route\n",
            )?;
            return Ok(HttpOutcome::Done);
        }
    };
    match result {
        Ok(body) => {
            let content_type = if req.path == "/metrics" {
                "text/plain; version=0.0.4; charset=utf-8"
            } else {
                "text/plain; charset=utf-8"
            };
            respond(w, 200, "OK", content_type, &body)?;
        }
        Err(e) => respond_error(w, &e)?,
    }
    Ok(HttpOutcome::Done)
}

fn handle_ingest(ctx: &Ctx, req: &Request) -> Result<String> {
    ctx.metrics.http_requests("/ingest").inc();
    let ticks = match req
        .params
        .get("ticks")
        .map(String::as_str)
        .or_else(|| req.header("X-Sase-Ticks"))
    {
        None | Some("explicit") => TickMode::Explicit,
        Some("server") => TickMode::ServerAssigned,
        Some(other) => {
            return Err(ServerError::Protocol(format!(
                "unknown ticks mode `{other}` (expected `explicit` or `server`)"
            )));
        }
    };
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| ServerError::Protocol("ingest body is not UTF-8".into()))?;
    let mut events = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        events.push(parse_ingest_line(ctx, line)?);
    }
    let stream = req.params.get("stream").cloned();
    let emissions = ctx.deployment.ingest(stream, ticks, events)?;
    let mut out = String::new();
    for ce in &emissions {
        crate::render_emission(&mut out, ce);
        out.push('\n');
    }
    Ok(out)
}

fn handle_register(ctx: &Ctx, req: &Request) -> Result<String> {
    ctx.metrics.http_requests("/query").inc();
    let name = req
        .params
        .get("name")
        .ok_or_else(|| ServerError::Protocol("POST /query requires ?name=".into()))?;
    let src = std::str::from_utf8(&req.body)
        .map_err(|_| ServerError::Protocol("query body is not UTF-8".into()))?
        .trim();
    if src.is_empty() {
        return Err(ServerError::Protocol("query body is empty".into()));
    }
    // HTTP has no session, so the query is registered unowned: no wire
    // session can unregister it.
    let diags = ctx.deployment.register(None, name, src)?;
    let mut out = String::new();
    for d in &diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    Ok(out)
}

fn handle_stats(ctx: &Ctx, req: &Request) -> Result<String> {
    ctx.metrics.http_requests("/stats").inc();
    let all = ctx.deployment.all_stats()?;
    match req.params.get("query") {
        Some(name) => all
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, stats)| render_stats(stats))
            .ok_or_else(|| ServerError::UnknownQuery(name.clone())),
        None => Ok(all
            .iter()
            .map(|(name, stats)| format!("[{name}]\n{}", render_stats(stats)))
            .collect::<String>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::runtime::RuntimeStats;

    #[test]
    fn read_timeout_mid_request_ends_the_read() {
        let request = b"POST /ingest HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        // Cut inside the head, then inside the body.
        for cut in [20, request.len()] {
            let peer = crate::SilentPeer::new(&request[..cut], std::io::ErrorKind::TimedOut);
            let err = read_request(&mut std::io::BufReader::new(peer))
                .err()
                .expect("a silent peer ends the read");
            assert!(matches!(err, ServerError::Io(_)), "{err}");
        }
    }

    #[test]
    fn percent_decode_takes_only_two_hex_digits() {
        // The `%` stays literal; the `+` is still a form-encoded space.
        assert_eq!(percent_decode("a%+5b"), "a% 5b");
        assert_eq!(percent_decode("a%"), "a%");
        assert_eq!(percent_decode("a%4"), "a%4");
        assert_eq!(percent_decode("a%2Bb"), "a+b");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
    }

    #[test]
    fn render_stats_lists_every_counter_in_row_order() {
        let stats = RuntimeStats {
            events_processed: 1,
            instances_appended: 2,
            instances_pruned: 3,
            sequences_constructed: 4,
            construction_filter_rejects: 5,
            dropped_by_negation: 6,
            negation_candidates_buffered: 7,
            matches_emitted: 8,
            partitions: 9,
            eval_errors: 10,
        };
        assert_eq!(
            render_stats(&stats),
            "events_processed 1\ninstances_appended 2\ninstances_pruned 3\n\
             sequences_constructed 4\nconstruction_filter_rejects 5\n\
             dropped_by_negation 6\nnegation_candidates_buffered 7\n\
             matches_emitted 8\npartitions 9\neval_errors 10\n"
        );
    }

    /// A socket stand-in: every `read` hands over as much as fits, and is
    /// counted.
    struct Counting<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl std::io::Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_request_head_costs_at_most_two_reads() {
        use std::io::Read;
        let mut request = String::from("POST /ingest?stream=retail HTTP/1.1\r\n");
        for i in 0..40 {
            request.push_str(&format!("X-Header-{i}: value number {i}\r\n"));
        }
        let body = "EXIT_READING 1 7 soap 4\n";
        request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        let request = request.into_bytes();

        // As the server reads it: the four sniffed bytes, then the socket.
        let (first, rest) = request.split_at(4);
        let mut socket = Counting {
            bytes: rest,
            reads: 0,
        };
        let mut reader = std::io::BufReader::new(first.chain(&mut socket));
        let req = read_request(&mut reader).unwrap().unwrap();
        drop(reader);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/ingest");
        assert_eq!(req.params.get("stream").map(String::as_str), Some("retail"));
        assert_eq!(req.headers.len(), 41);
        assert_eq!(req.header("x-header-39"), Some("value number 39"));
        assert_eq!(req.body, body.as_bytes());
        assert!(socket.reads <= 2, "{} socket reads", socket.reads);
    }
}
