//! Put a SASE deployment on the wire: serve the line protocol, HTTP/1.1,
//! and WebSocket push over a retail deployment with two standing queries
//! preregistered, then accept remote registrations, ingest, and
//! subscriptions until `quit`.
//!
//! ```text
//! cargo run --example serve                      # listen on 127.0.0.1:7878
//! cargo run --example serve -- 0.0.0.0:9000      # listen elsewhere
//! cargo run --example serve -- --test            # self-check and exit
//! ```
//!
//! While serving, try from another shell:
//!
//! ```text
//! curl -X POST 'http://127.0.0.1:7878/query?name=watch' \
//!      --data 'EVENT EXIT_READING z RETURN z.TagId AS tag'
//! curl -X POST 'http://127.0.0.1:7878/ingest' --data 'EXIT_READING 12 7 soap 4'
//! curl 'http://127.0.0.1:7878/metrics'
//! ```
//!
//! `--test` drives every protocol against an ephemeral port — line
//! protocol lifecycle, WebSocket push, HTTP metrics — and exits nonzero
//! on any divergence; CI runs it as the serve smoke gate.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;

use sase::core::event::{retail_registry, Event, SchemaRegistry};
use sase::core::value::Value;
use sase::server::client::{Client, PushClient};
use sase::server::wire::TickMode;
use sase::{Sase, ServerConfig};

/// Queries preregistered by the server (unowned: any session may drop
/// them over HTTP, none may over the line protocol).
const QUERIES: [(&str, &str); 2] = [
    (
        "pairs",
        "EVENT SEQ(SHELF_READING a, EXIT_READING b) \
         WHERE a.TagId = b.TagId WITHIN 50 RETURN a.TagId AS tag",
    ),
    (
        "exits",
        "EVENT EXIT_READING z RETURN z.TagId AS tag, z.AreaId AS area",
    ),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or(if test_mode {
            "127.0.0.1:0"
        } else {
            "127.0.0.1:7878"
        });

    let registry = retail_registry();
    let mut sase = Sase::builder()
        .schemas(registry.clone())
        .metrics(true)
        .build()?;
    for (name, src) in QUERIES {
        sase.register(name, src)?;
    }

    let handle = sase.serve(addr, ServerConfig::default())?;
    let local = handle.local_addr();

    if test_mode {
        let result = self_check(local, &registry);
        let backend = handle.shutdown();
        assert_eq!(backend.query_names().len(), 3, "registered queries survive");
        result?;
        println!("serve self-check passed on {local}");
        return Ok(());
    }

    println!("serving on {local}");
    println!("  line protocol : sase::server::client::Client::connect(\"{local}\")");
    println!("  http          : curl http://{local}/metrics");
    println!("  websocket push: ws://{local}/ws  (subscribe <query>)");
    println!("queries: {}", sase_query_list());
    println!("type `quit` to shut down gracefully.");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        if matches!(line?.trim(), "quit" | "exit") {
            break;
        }
    }
    let backend = handle.shutdown();
    println!(
        "drained; {} queries at shutdown",
        backend.query_names().len()
    );
    Ok(())
}

fn sase_query_list() -> String {
    QUERIES
        .iter()
        .map(|(n, _)| *n)
        .collect::<Vec<_>>()
        .join(", ")
}

fn reading(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64) -> Event {
    reg.build_event(
        ty,
        ts,
        vec![Value::Int(tag), Value::str("soap"), Value::Int(4)],
    )
    .expect("retail schema")
}

/// Drive all three protocols against the served deployment; any
/// divergence is an `Err` (or a panic with context), which `main` turns
/// into a nonzero exit.
fn self_check(
    addr: std::net::SocketAddr,
    reg: &SchemaRegistry,
) -> Result<(), Box<dyn std::error::Error>> {
    // Line protocol: lifecycle end to end.
    let mut client = Client::connect(addr)?;
    client.ping()?;
    assert_eq!(client.queries()?, vec!["pairs".to_string(), "exits".into()]);
    let diags = client.register(
        "watch",
        "EVENT COUNTER_READING c RETURN c.TagId AS t, c.AreaId AS area",
    )?;
    assert!(
        diags.iter().all(|d| d.severity < sase::Severity::Error),
        "shipped query must be free of error findings: {diags:?}"
    );

    // WebSocket push: subscribe before the detection fires.
    let mut push = PushClient::connect(addr)?;
    push.subscribe("pairs")?;
    push.ping()?;

    let batch = [
        reading(reg, "SHELF_READING", 1, 7),
        reading(reg, "EXIT_READING", 2, 7),
    ];
    let out = client.ingest(None, TickMode::Explicit, &batch)?;
    assert_eq!(out.len(), 2, "pairs + watch-free exits fire: {out:?}");
    let pairs_line = out
        .iter()
        .map(ToString::to_string)
        .find(|l| l.starts_with("[pairs@"))
        .expect("pairs emission");
    let pushed = push.next_event()?.expect("push before close");
    assert_eq!(pushed, pairs_line, "push must mirror the wire emission");
    push.unsubscribe("pairs")?;
    push.close()?;

    let stats = client.stats("pairs")?;
    assert_eq!(stats.matches_emitted, 1, "one pair detected: {stats:?}");

    // HTTP: the Prometheus exposition covers server + deployment series.
    let metrics = http_get(addr, "/metrics")?;
    for family in [
        "sase_server_connections",
        "sase_server_ingest_batches_total",
        "sase_query_matches_emitted_total",
    ] {
        assert!(metrics.contains(family), "missing metric family {family}");
    }
    let wire_metrics = client.metrics()?;
    assert!(wire_metrics.contains("sase_server_connections"));
    Ok(())
}

/// Minimal HTTP/1.1 GET against the same listener.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let mut sock = TcpStream::connect(addr)?;
    write!(
        sock,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    sock.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("")).into());
    }
    Ok(body.to_string())
}
