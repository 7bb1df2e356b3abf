//! Loopback integration tests: a real listener on an ephemeral port, real
//! sockets, all three protocols.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sase_core::engine::Engine;
use sase_core::event::{retail_registry, Event, SchemaRegistry};
use sase_core::functions::FunctionRegistry;
use sase_core::value::Value;
use sase_server::client::{Client, PushClient};
use sase_server::wire::TickMode;
use sase_server::ws::WsClient;
use sase_server::{Server, ServerConfig, ServerError, ServerHandle, SlowPolicy};

const Q_PAIR: &str = "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                      WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId AS tag";
const Q_EXIT: &str = "EVENT EXIT_READING z RETURN z.TagId AS tag, z.ProductName AS product";

fn reading(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64) -> Event {
    reg.build_event(
        ty,
        ts,
        vec![Value::Int(tag), Value::str("soap"), Value::Int(1)],
    )
    .unwrap()
}

/// The sample of an unlabeled series in a Prometheus exposition.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` sample in:\n{metrics}"))
}

/// The largest `sase_server_fanout_queue_depth{session=…}` sample in a
/// Prometheus exposition.
fn deepest_queue(metrics: &str) -> f64 {
    metrics
        .lines()
        .filter_map(|l| {
            let sample = l.strip_prefix("sase_server_fanout_queue_depth{")?;
            sample.rsplit_once(' ')?.1.parse::<f64>().ok()
        })
        .reduce(f64::max)
        .unwrap_or_else(|| panic!("no queue-depth series in:\n{metrics}"))
}

/// Send one raw HTTP request; returns the status and the body.
fn http(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn serve_default() -> (ServerHandle, SchemaRegistry) {
    let reg = retail_registry();
    let engine = Engine::new(reg.clone());
    let handle = Server::serve("127.0.0.1:0", Box::new(engine), ServerConfig::default()).unwrap();
    (handle, reg)
}

#[test]
fn line_protocol_full_lifecycle() {
    let (handle, reg) = serve_default();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.ping().unwrap();

    let diags = client.register("pairs", Q_PAIR).unwrap();
    assert!(
        diags.is_empty()
            || diags
                .iter()
                .all(|d| d.severity < sase_core::analyze::Severity::Error),
        "clean query must not produce analyzer errors: {diags:?}"
    );

    // The same batch through an embedded engine is the oracle.
    let mut oracle = Engine::new(reg.clone());
    oracle.register("pairs", Q_PAIR).unwrap();
    let batch = vec![
        reading(&reg, "SHELF_READING", 1, 7),
        reading(&reg, "SHELF_READING", 2, 8),
        reading(&reg, "EXIT_READING", 3, 7),
        reading(&reg, "EXIT_READING", 4, 8),
    ];
    let want: Vec<String> = oracle
        .process_batch(&batch)
        .unwrap()
        .iter()
        .map(|ce| ce.to_string())
        .collect();

    let got: Vec<String> = client
        .ingest(None, TickMode::Explicit, &batch)
        .unwrap()
        .iter()
        .map(|ce| ce.to_string())
        .collect();
    assert_eq!(got, want, "wire emissions must render identically");
    assert_eq!(got.len(), 2);

    let stats = client.stats("pairs").unwrap();
    assert_eq!(stats.events_processed, 4);
    assert_eq!(stats.matches_emitted, 2);

    assert_eq!(client.queries().unwrap(), vec!["pairs".to_string()]);
    assert!(client.explain("pairs").unwrap().contains("SHELF_READING"));

    let check = client
        .check("EVENT EXIT_READING z WHERE z.TagId = 'nope' RETURN z.TagId AS t")
        .unwrap();
    assert!(
        check
            .iter()
            .any(|d| d.severity == sase_core::analyze::Severity::Error),
        "type error must surface over the wire: {check:?}"
    );

    assert!(client.unregister("pairs").unwrap());
    assert!(!client.unregister("pairs").unwrap());

    let backend = handle.shutdown();
    assert!(backend.query_names().is_empty());
}

#[test]
fn malformed_frames_tear_down_the_connection_not_the_server() {
    let (handle, _reg) = serve_default();
    let addr = handle.local_addr();

    // 1. CRC damage.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        let payload = [0x01u8]; // Ping opcode
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes()); // wrong CRC
        sock.write_all(&frame).unwrap();
        let reply = sase_server::wire::read_frame(&mut sock).unwrap().unwrap();
        match sase_server::wire::decode_response(&reply).unwrap() {
            sase_server::wire::Response::Error { code, message } => {
                assert_eq!(code, 2, "wire-fault code");
                assert!(message.contains("CRC"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // The connection is torn down: next read sees EOF.
        let mut buf = [0u8; 1];
        assert_eq!(sock.read(&mut buf).unwrap(), 0);
    }

    // 2. Trailing bytes inside a well-framed payload.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        let mut payload = vec![0x01u8]; // Ping
        payload.push(0x55); // trailing garbage
        sase_server::wire::write_frame(&mut sock, &payload).unwrap();
        let reply = sase_server::wire::read_frame(&mut sock).unwrap().unwrap();
        match sase_server::wire::decode_response(&reply).unwrap() {
            sase_server::wire::Response::Error { code, message } => {
                assert_eq!(code, 2);
                assert!(message.contains("trailing"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        let mut buf = [0u8; 1];
        assert_eq!(sock.read(&mut buf).unwrap(), 0);
    }

    // 3. Truncated frame: declared length never arrives.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&100u32.to_be_bytes()).unwrap();
        sock.write_all(&[1, 2, 3]).unwrap();
        drop(sock.try_clone().unwrap());
        sock.shutdown(std::net::Shutdown::Write).unwrap();
        // Server sees truncation and closes; reply may be an error frame
        // or a straight close depending on timing — both are fine, the
        // requirement is that the server survives.
        let mut sink = Vec::new();
        let _ = sock.read_to_end(&mut sink);
    }

    // The server is still serving fresh connections.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn sessions_own_their_queries() {
    let (handle, _reg) = serve_default();
    let mut alice = Client::connect(handle.local_addr()).unwrap();
    let mut bob = Client::connect(handle.local_addr()).unwrap();

    alice.register("exits", Q_EXIT).unwrap();

    // Bob sees the query but cannot drop it.
    assert_eq!(bob.queries().unwrap(), vec!["exits".to_string()]);
    match bob.unregister("exits") {
        Err(ServerError::NotOwner { query }) => assert_eq!(query, "exits"),
        other => panic!("expected NotOwner, got {other:?}"),
    }

    // Duplicate registration fails with an engine error, not a panic.
    match bob.register("exits", Q_EXIT) {
        Err(ServerError::Engine(m)) => assert!(m.contains("exits"), "{m}"),
        other => panic!("expected Engine error, got {other:?}"),
    }

    // The owner can drop it.
    assert!(alice.unregister("exits").unwrap());
    assert_eq!(bob.queries().unwrap(), Vec::<String>::new());
    handle.shutdown();
}

#[test]
fn server_assigned_ticks_accept_concurrent_ingesters() {
    let (handle, reg) = serve_default();
    let mut a = Client::connect(handle.local_addr()).unwrap();
    a.register("exits", Q_EXIT).unwrap();

    // Two clients, both sending ts=1 events: explicit mode would reject
    // the second batch as out-of-order; server-assigned mode rebases.
    let mk = |tag| vec![reading(&reg, "EXIT_READING", 1, tag)];
    let mut b = Client::connect(handle.local_addr()).unwrap();
    let out_a = a.ingest(None, TickMode::ServerAssigned, &mk(1)).unwrap();
    let out_b = b.ingest(None, TickMode::ServerAssigned, &mk(2)).unwrap();
    assert_eq!(out_a.len(), 1);
    assert_eq!(out_b.len(), 1);
    // Ticks are strictly increasing across both connections.
    assert!(out_b[0].detected_at > out_a[0].detected_at);

    // Explicit mode still enforces monotonicity after the rebased ticks.
    match a.ingest(None, TickMode::Explicit, &mk(3)) {
        Err(ServerError::Engine(m)) => assert!(m.contains("out-of-order"), "{m}"),
        other => panic!("expected out-of-order rejection, got {other:?}"),
    }
    handle.shutdown();

    // A batch of several events with string attributes (repeated, empty,
    // non-ASCII), all stamped 1, is rebased to ticks 1..=6 on a fresh
    // server: it emits exactly what the same events stamped 1..=6 emit
    // in explicit mode.
    let batch = |stamp: &dyn Fn(u64) -> u64| -> Vec<Event> {
        [
            ("SHELF_READING", 7, "soap"),
            ("SHELF_READING", 8, "naïve ☃"),
            ("EXIT_READING", 7, "soap"),
            ("EXIT_READING", 8, "naïve ☃"),
            ("EXIT_READING", 9, ""),
            ("EXIT_READING", 7, "soap"),
        ]
        .iter()
        .zip(1u64..)
        .map(|(&(ty, tag, product), k)| {
            reg.build_event(
                ty,
                stamp(k),
                vec![Value::Int(tag), Value::str(product), Value::Int(1)],
            )
            .unwrap()
        })
        .collect()
    };
    let emitted = |ticks: TickMode, events: &[Event]| -> Vec<String> {
        let (handle, _) = serve_default();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.register("pairs", Q_PAIR).unwrap();
        client.register("exits", Q_EXIT).unwrap();
        let out = client.ingest(None, ticks, events).unwrap();
        handle.shutdown();
        out.iter().map(|ce| ce.to_string()).collect()
    };
    let rebased = emitted(TickMode::ServerAssigned, &batch(&|_| 1));
    let explicit = emitted(TickMode::Explicit, &batch(&|k| k));
    assert_eq!(rebased.len(), 4 + 3, "four exits, three shelf-exit pairs");
    assert_eq!(rebased, explicit);
}

#[test]
fn websocket_push_end_to_end() {
    let (handle, reg) = serve_default();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.register("pairs", Q_PAIR).unwrap();

    let mut push = PushClient::connect(handle.local_addr()).unwrap();
    push.ping().unwrap();
    push.subscribe("pairs").unwrap();
    match push.subscribe("no_such_query") {
        Err(ServerError::Protocol(m)) => assert!(m.contains("no_such_query"), "{m}"),
        other => panic!("expected error reply, got {other:?}"),
    }

    let batch = vec![
        reading(&reg, "SHELF_READING", 1, 7),
        reading(&reg, "EXIT_READING", 2, 7),
    ];
    let emissions = client.ingest(None, TickMode::Explicit, &batch).unwrap();
    assert_eq!(emissions.len(), 1);

    // The push line is byte-identical to the wire (and thus embedded)
    // rendering.
    let pushed = push.next_event().unwrap().expect("one push expected");
    assert_eq!(pushed, emissions[0].to_string());

    push.unsubscribe("pairs").unwrap();
    let more = client
        .ingest(
            None,
            TickMode::Explicit,
            &[
                reading(&reg, "SHELF_READING", 11, 9),
                reading(&reg, "EXIT_READING", 12, 9),
            ],
        )
        .unwrap();
    assert_eq!(more.len(), 1);
    // No longer subscribed: the metrics must show exactly one push total.
    let metrics = client.metrics().unwrap();
    let line = metrics
        .lines()
        .find(|l| l.starts_with("sase_server_pushes_total"))
        .expect("pushes_total series");
    assert!(line.ends_with(" 1"), "exactly one push expected: {line}");
    handle.shutdown();
}

/// The fan-out contract (`docs/wire-protocol.md`, "Fan-out bound"): at
/// most `subscriber_queue` frames wait in user space per subscriber;
/// bytes the kernel has accepted are the peer's. So a subscriber that
/// never reads takes drops only once its socket is full, and from then
/// on the queue is all it can still be given.
#[test]
fn slow_subscribers_drop_instead_of_buffering() {
    const QUEUE: usize = 2;
    // Each push carries this much text, so the loopback socket buffers
    // (a few MiB) fill within a few hundred pushes.
    const PUSH_BYTES: usize = 32 * 1024;
    // 256 MiB of pushes: far beyond any kernel's socket buffers.
    const FILL_ATTEMPTS: u64 = 8192;
    const BURST: u64 = 16;
    const BURSTS: u64 = 8;

    let reg = retail_registry();
    let engine = Engine::new(reg.clone());
    let config = ServerConfig {
        subscriber_queue: QUEUE,
        slow_policy: SlowPolicy::Drop,
        ..ServerConfig::default()
    };
    let handle = Server::serve("127.0.0.1:0", Box::new(engine), config).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.register("exits", Q_EXIT).unwrap();
    // From here on the subscriber never reads its socket.
    let mut push = PushClient::connect(handle.local_addr()).unwrap();
    push.subscribe("exits").unwrap();

    let product = "x".repeat(PUSH_BYTES);
    let mut ts = 0u64;
    let mut emitted = 0u64;
    // Ingest `n` matching events in one batch (the ack proves the engine
    // was not blocked by the subscriber) and return the drop counter and
    // the deepest subscriber queue; the fan-out counters must account for
    // every emission so far.
    let mut ingest = |client: &mut Client, n: u64| -> (u64, f64) {
        let batch: Vec<Event> = (0..n)
            .map(|_| {
                ts += 1;
                reg.build_event(
                    "EXIT_READING",
                    ts,
                    vec![Value::Int(7), Value::str(&product), Value::Int(4)],
                )
                .unwrap()
            })
            .collect();
        let acked = client.ingest(None, TickMode::Explicit, &batch).unwrap();
        assert_eq!(acked.len() as u64, n, "every ingest is acked in full");
        emitted += n;
        let metrics = client.metrics().unwrap();
        let delivered = sample(&metrics, "sase_server_pushes_total");
        let dropped = sample(&metrics, "sase_server_pushes_dropped_total");
        assert_eq!(delivered + dropped, emitted, "{metrics}");
        (dropped, deepest_queue(&metrics))
    };

    // Fill the socket one push per round trip: the writer thread has a
    // whole round trip to take each frame off the queue, so the queue
    // only overflows once the writer is blocked on a full socket.
    let mut dropped = 0;
    for _ in 0..FILL_ATTEMPTS {
        (dropped, _) = ingest(&mut client, 1);
        if dropped > 0 {
            break;
        }
    }
    assert!(
        dropped > 0,
        "the subscriber's socket never filled: {FILL_ATTEMPTS} pushes of \
         {PUSH_BYTES} bytes were all accepted"
    );

    // How much of a burst the kernel still takes is not fixed (Linux can
    // resume a stalled writer as it grows the peer's buffers), so neither
    // is how much of it drops. The queue is what is bounded. The writer
    // lowers the gauge just after it takes a push, so one push may sit
    // between the two.
    for _ in 0..BURSTS {
        let (_, depth) = ingest(&mut client, BURST);
        assert!(
            depth <= (QUEUE + 1) as f64,
            "after a burst of {BURST}, {depth} pushes wait for a subscriber \
             whose queue holds {QUEUE}"
        );
    }

    drop(push);
    handle.shutdown();
}

/// Serve one query, hand the address to `subscribe` (which must leave a
/// subscriber to `exits` that never reads), fill that subscriber's socket
/// — running `each_round` on the subscriber between pushes — until its
/// writer is blocked in `write` with the queue behind it full, and
/// require `shutdown()` to hand back the backend within 5 s with every
/// acknowledged batch applied, while the peer is still connected and
/// still not reading.
fn shutdown_with_a_stuck_subscriber<S>(
    subscribe: impl FnOnce(std::net::SocketAddr) -> S,
    mut each_round: impl FnMut(&mut S),
) {
    const PUSH_BYTES: usize = 32 * 1024;
    const FILL_ATTEMPTS: u64 = 8192;
    const STUCK: Duration = Duration::from_millis(500);

    let reg = retail_registry();
    let config = ServerConfig {
        subscriber_queue: 2,
        slow_policy: SlowPolicy::Drop,
        ..ServerConfig::default()
    };
    let handle = Server::serve("127.0.0.1:0", Box::new(Engine::new(reg.clone())), config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.register("exits", Q_EXIT).unwrap();
    let mut subscriber = subscribe(handle.local_addr());

    // One push per round trip until every push has been dropped for STUCK
    // on end. The kernel stalls a writer for tens of milliseconds now and
    // then while it still has room to grow the peer's buffers; a writer
    // that has not taken a frame off its full queue for this long is
    // blocked on a socket that is full for good.
    let product = "x".repeat(PUSH_BYTES);
    let mut dropped = 0;
    let mut acked = 0u64;
    let mut last_delivered = Instant::now();
    while last_delivered.elapsed() < STUCK {
        assert!(
            acked < FILL_ATTEMPTS,
            "the subscriber's socket never filled"
        );
        acked += 1;
        let event = reg
            .build_event(
                "EXIT_READING",
                acked,
                vec![Value::Int(7), Value::str(&product), Value::Int(4)],
            )
            .unwrap();
        let out = client.ingest(None, TickMode::Explicit, &[event]).unwrap();
        assert_eq!(out.len(), 1);
        each_round(&mut subscriber);
        let now = sample(
            &client.metrics().unwrap(),
            "sase_server_pushes_dropped_total",
        );
        if now == dropped {
            last_delivered = Instant::now();
        }
        dropped = now;
    }

    let (done, returned) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let backend = handle.shutdown();
        let _ = done.send(backend.stats("exits").unwrap().matches_emitted);
    });
    let applied = returned
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown hung on a subscriber that never reads");
    assert_eq!(applied, acked, "every acknowledged batch is applied");
    stopper.join().unwrap();
    // Only now does the peer go away.
    drop(subscriber);
}

/// A subscriber that stops reading blocks its writer thread in `write`
/// once the socket is full. Shutdown must not wait on that peer.
#[test]
fn shutdown_does_not_wait_for_a_subscriber_that_never_reads() {
    shutdown_with_a_stuck_subscriber(
        |addr| {
            let mut push = PushClient::connect(addr).unwrap();
            push.subscribe("exits").unwrap();
            push
        },
        |_| {},
    );
}

/// The same subscriber, sending a command every round. Once the writer is
/// blocked a reply has to queue behind it, so the session's reader blocks
/// too — in `send`, where shutting the read half does not wake it.
/// Shutdown must not wait on that either. (Traffic from the peer also
/// carries its receive window, so a writer that stays blocked through it
/// is not merely waiting for a window update.)
#[test]
fn shutdown_does_not_wait_for_a_reader_queued_behind_a_stuck_writer() {
    shutdown_with_a_stuck_subscriber(
        |addr| {
            let sock = TcpStream::connect(addr).unwrap();
            let mut ws = WsClient::handshake(sock, "server", "/ws").unwrap();
            ws.send_text("subscribe exits").unwrap();
            assert_eq!(ws.recv_text().unwrap().as_deref(), Some("subscribed exits"));
            ws
        },
        |ws| ws.send_text("ping").unwrap(),
    );
}

#[test]
fn http_endpoints_work() {
    let (handle, _reg) = serve_default();
    let addr = handle.local_addr();

    let post = |path: &str, body: &str| http_post(addr, path, body);
    let get = |path: &str| http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"));

    // Register via HTTP; response carries rendered diagnostics (none).
    let (status, body) = post("/query?name=pairs", Q_PAIR);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.trim().is_empty(),
        "clean query, no diagnostics: {body}"
    );

    // A broken query returns its analyzer findings.
    let (status, body) = post(
        "/query?name=broken",
        "EVENT EXIT_READING z WHERE z.TagId = RETURN",
    );
    assert_eq!(status, 400, "parse failure registers nothing: {body}");

    // Ingest; emissions come back one per line.
    let (status, body) = post(
        "/ingest",
        "SHELF_READING 1 7 soap 1\nEXIT_READING 2 7 soap 4\n",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.lines().count(), 1, "{body}");
    assert!(body.contains("[pairs@2]"), "{body}");

    // Bad ingest line → 400 with a useful message.
    let (status, body) = post("/ingest", "EXIT_READING 3 notanint soap 4\n");
    assert_eq!(status, 400);
    assert!(body.contains("not an Int"), "{body}");

    // Stats.
    let (status, body) = get("/stats?query=pairs");
    assert_eq!(status, 200);
    assert!(body.contains("matches_emitted 1"), "{body}");
    let (status, _) = get("/stats?query=absent");
    assert_eq!(status, 404);

    // Queries list.
    let (status, body) = get("/queries");
    assert_eq!(status, 200);
    assert_eq!(body.trim(), "pairs");

    // Unknown route and wrong method.
    assert_eq!(get("/nope").0, 404);
    assert_eq!(get("/ingest").0, 405);

    handle.shutdown();
}

#[test]
fn metrics_exposition_is_valid_and_covers_server_families() {
    let (handle, reg) = serve_default();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.register("exits", Q_EXIT).unwrap();
    client
        .ingest(
            None,
            TickMode::Explicit,
            &[reading(&reg, "EXIT_READING", 1, 7)],
        )
        .unwrap();
    let mut push = PushClient::connect(handle.local_addr()).unwrap();
    push.subscribe("exits").unwrap();

    let text = client.metrics().unwrap();

    // Server-added families are present.
    for family in [
        "sase_server_connections",
        "sase_server_sessions_total",
        "sase_server_ingest_batches_total",
        "sase_server_ingest_events_total",
        "sase_server_connections_total",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "family {family} missing from exposition:\n{text}"
        );
    }
    // Backend families are merged into the same scrape.
    assert!(
        text.lines().any(|l| l.starts_with("sase_query_")),
        "backend per-query series missing:\n{text}"
    );

    // Exposition-format validity: every line is a comment or
    // `name[{labels}] value` with a float-parsable value.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has name and value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable sample value in `{line}`"
        );
        let name_part = series.split('{').next().unwrap();
        assert!(
            !name_part.is_empty()
                && name_part
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in `{line}`"
        );
        if let Some(rest) = series.split_once('{') {
            assert!(rest.1.ends_with('}'), "unterminated label set in `{line}`");
        }
    }
    handle.shutdown();
}

#[test]
fn capacity_cap_rejects_politely() {
    let reg = retail_registry();
    let engine = Engine::new(reg);
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let handle = Server::serve("127.0.0.1:0", Box::new(engine), config).unwrap();

    let mut first = Client::connect(handle.local_addr()).unwrap();
    first.ping().unwrap();
    let mut second = Client::connect(handle.local_addr()).unwrap();
    match second.ping() {
        Err(ServerError::AtCapacity) => {}
        other => panic!("expected AtCapacity, got {other:?}"),
    }
    // The first connection keeps working.
    first.ping().unwrap();
    handle.shutdown();
}

#[test]
fn shutdown_returns_the_backend_with_state_intact() {
    let (handle, reg) = serve_default();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.register("exits", Q_EXIT).unwrap();
    client
        .ingest(
            None,
            TickMode::Explicit,
            &[reading(&reg, "EXIT_READING", 1, 7)],
        )
        .unwrap();
    let addr = handle.local_addr();

    let backend = handle.shutdown();
    assert_eq!(backend.query_names(), vec!["exits".to_string()]);
    assert_eq!(backend.stats("exits").unwrap().matches_emitted, 1);

    // The listener is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly during teardown; a subsequent
            // request must fail either way.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
}

#[test]
fn server_assigned_ticks_refuse_to_overflow() {
    let (handle, reg) = serve_default();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.register("exits", Q_EXIT).unwrap();
    let last = [reading(&reg, "EXIT_READING", u64::MAX, 7)];
    assert_eq!(
        client
            .ingest(None, TickMode::Explicit, &last)
            .unwrap()
            .len(),
        1
    );

    // The stream's clock is at the last tick: a server-assigned batch has
    // no tick left, over either protocol, and is refused with a typed
    // error.
    let next = [reading(&reg, "EXIT_READING", 0, 8)];
    match client.ingest(None, TickMode::ServerAssigned, &next) {
        Err(ServerError::Engine(m)) => assert!(m.contains("ticks exhausted"), "{m}"),
        other => panic!("expected a typed engine error, got {other:?}"),
    }
    let (status, body) = http_post(
        handle.local_addr(),
        "/ingest?ticks=server",
        "EXIT_READING - 9 soap 1\n",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("ticks exhausted"), "{body}");

    // Neither refusal reached the backend, and the connection still works.
    assert_eq!(
        client
            .ingest(None, TickMode::Explicit, &last)
            .unwrap()
            .len(),
        1
    );
    assert_eq!(client.stats("exits").unwrap().events_processed, 2);
    handle.shutdown();
}

#[test]
fn a_panicking_host_function_poisons_the_deployment_not_the_server() {
    let reg = retail_registry();
    let functions = FunctionRegistry::with_stdlib();
    functions.register_fn("_boom", Some(1), |args| match &args[0] {
        Value::Int(13) => panic!("_boom on 13"),
        v => Ok(v.clone()),
    });
    let engine = Engine::with_functions(reg.clone(), functions);
    let handle = Server::serve("127.0.0.1:0", Box::new(engine), ServerConfig::default()).unwrap();
    let mut owner = Client::connect(handle.local_addr()).unwrap();
    owner
        .register("boom", "EVENT EXIT_READING z RETURN _boom(z.TagId) AS tag")
        .unwrap();
    let fine = [reading(&reg, "EXIT_READING", 1, 7)];
    assert_eq!(
        owner.ingest(None, TickMode::Explicit, &fine).unwrap().len(),
        1
    );

    let poisoned = |result: Result<(), ServerError>| match result {
        Err(ServerError::Engine(m)) => {
            assert!(m.contains("panicked") && m.contains("_boom on 13"), "{m}")
        }
        other => panic!("expected a typed engine error, got {other:?}"),
    };
    // The requester gets a typed error naming the panic.
    let boom = [reading(&reg, "EXIT_READING", 2, 13)];
    poisoned(owner.ingest(None, TickMode::Explicit, &boom).map(drop));
    // So does every later request, from any session, that needs the
    // deployment; requests that do not are still answered.
    let mut other = Client::connect(handle.local_addr()).unwrap();
    other.ping().unwrap();
    poisoned(other.queries().map(drop));
    let later = [reading(&reg, "EXIT_READING", 3, 7)];
    poisoned(other.ingest(None, TickMode::Explicit, &later).map(drop));
    poisoned(owner.stats("boom").map(drop));
    owner.ping().unwrap();

    let backend = handle.shutdown();
    assert_eq!(backend.query_names(), vec!["boom".to_string()]);
}
