//! `serve_wire`: the block over loopback — one `Client` ingesting with
//! acknowledged batches, one `PushClient` subscribed to every standing
//! query. The server is used both ways at once: it reads ingest frames
//! beside writing acks and pushes.
//!
//! Closed loop, one ingest connection and one subscriber connection (two
//! generator threads for the host's two cores).

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sase::server::client::{Client, PushClient};
use sase::server::wire::{
    decode_request, decode_response, encode_request, encode_response_parts, read_frame,
    write_frame, Request, Response, ResponseParts, TickMode,
};
use sase::{Sase, ServerConfig, ServerHandle};

use crate::estimate::median;
use crate::fanin::{bare_engine, check_batches};
use crate::input::{fnv1a, register_all, Block, BATCH};
use crate::round::{put, CpuMeter, Laps, Layers, Round, Workload};
use crate::spans::{median_us, Recorder};

/// How long a round waits for its last expected push before counting the
/// missing ones as failed.
const PUSH_DEADLINE: Duration = Duration::from_secs(10);
/// Pings per traced round (transport + queue hops, no engine).
const PINGS: usize = 64;

pub struct Wire {
    block: Arc<Block>,
}

/// What the subscriber thread saw: one stamp per push, in arrival order,
/// and the order-independent checksum of the pushed lines.
struct Arrivals {
    at: Vec<Instant>,
    checksum: u64,
}

/// A served deployment with its subscriber attached and reading.
struct Session {
    handle: ServerHandle,
    subscriber: JoinHandle<Arrivals>,
    /// Fires once when the last expected push has arrived.
    all_pushed: mpsc::Receiver<()>,
}

impl Wire {
    pub fn new(block: Arc<Block>) -> Self {
        Wire { block }
    }

    /// Build, register, bind, and subscribe one push client to every
    /// query: the set-up a user pays before the first batch (the ingest
    /// connection is the caller's), one lap per step. The accept loop
    /// polls every 5 ms, so the connect step alone swings by that much;
    /// lapped on its own, its quiet estimate is the poll that fired at once.
    fn serve(&self, laps: &mut Laps) -> (ServerHandle, SocketAddr, PushClient) {
        let mut sase = Sase::builder()
            .schemas(self.block.registry.clone())
            .build()
            .expect("deployment builds");
        register_all(&mut sase, &self.block.queries);
        laps.lap();
        // A subscriber queue that holds a whole round: a push dropped
        // because the benchmark's reader was descheduled would be the
        // host's doing, not the program's.
        let config = ServerConfig {
            subscriber_queue: self.block.reference.total as usize + 1,
            ..ServerConfig::default()
        };
        let handle = sase.serve("127.0.0.1:0", config).expect("server binds");
        let addr = handle.local_addr();
        laps.lap();
        let mut push = PushClient::connect(addr).expect("subscriber connects");
        laps.lap();
        for (name, _) in &self.block.queries {
            push.subscribe(name).expect("subscribes");
        }
        laps.lap();
        (handle, addr, push)
    }

    fn attach(&self, handle: ServerHandle, mut push: PushClient) -> Session {
        let expected = self.block.reference.total as usize;
        let (done, all_pushed) = mpsc::channel();
        let subscriber = std::thread::Builder::new()
            .name("perfbench-subscriber".into())
            .spawn(move || {
                let mut seen = Arrivals {
                    at: Vec::with_capacity(expected),
                    checksum: 0,
                };
                // Reads until the server's shutdown closes the stream, so
                // a push beyond the expected count is seen too.
                while let Ok(Some(line)) = push.next_event() {
                    seen.at.push(Instant::now());
                    seen.checksum = seen.checksum.wrapping_add(fnv1a(line.as_bytes()));
                    if seen.at.len() == expected {
                        let _ = done.send(());
                    }
                }
                seen
            })
            .expect("subscriber thread spawns");
        Session {
            handle,
            subscriber,
            all_pushed,
        }
    }

    /// Check acks and pushes against the reference. An operation is a
    /// batch or an expected push; returns `(attempted, failed)`.
    fn settle(&self, acks: &[Result<Vec<String>, String>], arrivals: &Arrivals) -> (u64, u64) {
        let reference = &self.block.reference;
        let (batches, failed_batches) = check_batches(&self.block, acks);
        let pushed = arrivals.at.len() as u64;
        let failed_pushes = if pushed == reference.total && arrivals.checksum == reference.checksum
        {
            0
        } else {
            eprintln!(
                "perfbench: {pushed} pushes arrived, {} expected (checksum {})",
                reference.total,
                if arrivals.checksum == reference.checksum {
                    "matches"
                } else {
                    "differs"
                }
            );
            reference.total.abs_diff(pushed).max(1)
        };
        (batches + reference.total, failed_batches + failed_pushes)
    }
}

fn rendered_ack(
    ack: sase::server::Result<Vec<sase::server::WireComplexEvent>>,
) -> Result<Vec<String>, String> {
    ack.map(|v| v.iter().map(|ce| ce.to_string()).collect())
        .map_err(|e| e.to_string())
}

impl Workload for Wire {
    fn round(&mut self) -> Round {
        let mut setup = Laps::start();
        let (handle, addr, push) = self.serve(&mut setup);
        let mut client = Client::connect(addr).expect("ingester connects");
        setup.lap();
        let session = self.attach(handle, push);

        let block = Arc::clone(&self.block);
        let mut calls_us = Vec::with_capacity(block.batches());
        let mut acks = Vec::with_capacity(block.batches());
        let mut cpu_us = Vec::with_capacity(block.batches());
        let mut cpu = CpuMeter::start();
        for chunk in block.events.chunks(BATCH) {
            let sent = Instant::now();
            let ack = client.ingest(None, TickMode::Explicit, chunk);
            calls_us.push(sent.elapsed().as_secs_f64() * 1e6);
            cpu_us.push(cpu.lap_us());
            acks.push(ack);
        }
        // Every push must land before the round counts as done, but the
        // wait is not part of any call: `server.push_*` in the traced run
        // say how the push path is doing.
        let _ = session.all_pushed.recv_timeout(PUSH_DEADLINE);

        drop(client);
        drop(session.handle.shutdown());
        let arrivals = session.subscriber.join().expect("subscriber thread");

        let acks: Vec<_> = acks.into_iter().map(rendered_ack).collect();
        let (attempted, failed) = self.settle(&acks, &arrivals);
        setup.us.push(calls_us[0]);
        Round {
            setup_us: setup.us,
            records: block.events.len() as u64,
            calls_us,
            cpu_us,
            emitted: block.reference.per_batch.clone(),
            attempted,
            failed,
        }
    }

    fn traced_round(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Round {
        let block = Arc::clone(&self.block);
        let events_n = block.events.len() as f64;
        let mark = rec.mark();
        let root = rec.enter("round", None);

        let setup_span = rec.enter("setup", None);
        let (handle, addr, push) = rec.leaf("server.serve_and_subscribe", None, || {
            self.serve(&mut Laps::start())
        });
        // The traced ingester is `Client::ingest` taken apart: the same
        // four public calls, each under its own span.
        let mut stream = rec.leaf("net.connect", None, || {
            let s = TcpStream::connect(addr).expect("ingester connects");
            s.set_nodelay(true).expect("nodelay");
            s
        });
        rec.exit(setup_span);
        let session = self.attach(handle, push);

        let ping = encode_request(&Request::Ping);
        for _ in 0..PINGS {
            rec.leaf("server.ping", None, || {
                write_frame(&mut stream, &ping).expect("ping writes");
                read_frame(&mut stream).expect("pong reads")
            });
        }

        let mut sent = Vec::with_capacity(block.batches());
        let mut acked = Vec::with_capacity(block.batches());
        let mut acks = Vec::with_capacity(block.batches());
        let mut requests = Vec::with_capacity(block.batches());
        let mut frame_bytes = 0usize;
        for (b, chunk) in block.events.chunks(BATCH).enumerate() {
            let b = Some(b as u32);
            sent.push(Instant::now());
            let call = rec.enter("wire.ingest", b);
            let request = rec.leaf("server.req_encode", b, || {
                encode_request(&Request::Ingest {
                    stream: None,
                    ticks: TickMode::Explicit,
                    events: chunk.to_vec(),
                })
            });
            rec.leaf("net.write_frame", b, || {
                write_frame(&mut stream, &request).expect("request writes")
            });
            // Blocks while the server decodes, queues, runs the engine
            // and encodes: the replicas below split that wait.
            let response = rec.leaf("net.read_frame", b, || {
                read_frame(&mut stream)
                    .expect("response reads")
                    .expect("server answers every request")
            });
            let decoded = rec.leaf("server.resp_decode", b, || decode_response(&response));
            rec.exit(call);
            acked.push(Instant::now());
            frame_bytes += request.len() + response.len() + 16;
            acks.push(match decoded {
                Ok(Response::Ingested(out)) => Ok(out.iter().map(|ce| ce.to_string()).collect()),
                other => Err(format!("{other:?}")),
            });
            requests.push(request);
        }
        let _ = session.all_pushed.recv_timeout(PUSH_DEADLINE);

        // The server's own counters, over the connection already open.
        write_frame(&mut stream, &encode_request(&Request::Metrics)).expect("metrics request");
        let metrics = match read_frame(&mut stream)
            .ok()
            .flatten()
            .map(|p| decode_response(&p))
        {
            Some(Ok(Response::Metrics(text))) => text,
            other => panic!("metrics response: {other:?}"),
        };
        drop(stream);
        drop(session.handle.shutdown());
        let arrivals = session.subscriber.join().expect("subscriber thread");

        // What the server did with each request while the ingester waited,
        // replayed here once the server is gone.
        let mut bare = bare_engine(&block);
        for (b, (request, chunk)) in requests.iter().zip(block.events.chunks(BATCH)).enumerate() {
            let b = Some(b as u32);
            let _ = rec.leaf("server.req_decode.replica", b, || {
                decode_request(request, &block.registry)
            });
            let emissions = rec
                .leaf("core.engine.process_batch.replica", b, || {
                    bare.process_batch(chunk)
                })
                .expect("replica engine accepts the block");
            let _ = rec.leaf("server.resp_encode.replica", b, || {
                encode_response_parts(&ResponseParts::Ingested(&emissions))
            });
        }
        rec.exit(root);

        // Each push as a top-level interval: batch hand-over → arrival.
        let mut lags_us = Vec::new();
        let mut push_detect_us = Vec::with_capacity(arrivals.at.len());
        let mut k = 0usize;
        for (b, &n) in block.reference.per_batch.iter().enumerate() {
            let end = (k + n as usize).min(arrivals.at.len());
            let of_batch = &arrivals.at[k..end];
            for &at in of_batch {
                rec.add("detect.push", sent[b], at, Some(b as u32));
                push_detect_us.push(signed_us(at, sent[b]));
            }
            if let Some(&last) = of_batch.last() {
                lags_us.push(signed_us(last, acked[b]));
            }
            k = end;
        }

        let spans = rec.since(mark);
        for (name, span) in [
            ("server.req_encode_us_per_batch", "server.req_encode"),
            (
                "server.req_decode_us_per_batch",
                "server.req_decode.replica",
            ),
            (
                "server.resp_encode_us_per_batch",
                "server.resp_encode.replica",
            ),
            ("server.resp_decode_us_per_batch", "server.resp_decode"),
            ("server.ping_rtt_us", "server.ping"),
            ("server.ack_rtt_us", "wire.ingest"),
        ] {
            put(layers, name, median_us(spans, span));
        }
        put(
            layers,
            "server.frame_bytes_per_event",
            frame_bytes as f64 / events_n,
        );
        put(
            layers,
            "server.wire_share",
            1.0 - median_us(spans, "core.engine.process_batch.replica")
                / median_us(spans, "wire.ingest"),
        );
        put(
            layers,
            "server.push_lag_us",
            median(&lags_us).unwrap_or(0.0),
        );
        put(
            layers,
            "server.push_detect_p50_us",
            median(&push_detect_us).unwrap_or(0.0),
        );
        put(
            layers,
            "server.pushes_per_batch",
            scrape(&metrics, "sase_server_pushes_total") / block.batches() as f64,
        );
        put(
            layers,
            "server.pushes_dropped",
            scrape(&metrics, "sase_server_pushes_dropped_total"),
        );

        let (attempted, failed) = self.settle(&acks, &arrivals);
        Round {
            setup_us: Vec::new(),
            records: block.events.len() as u64,
            cpu_us: Vec::new(),
            calls_us: sent
                .iter()
                .zip(&acked)
                .map(|(s, a)| a.duration_since(*s).as_secs_f64() * 1e6)
                .collect(),
            emitted: block.reference.per_batch.clone(),
            attempted,
            failed,
        }
    }

    fn gen_s(&self) -> f64 {
        self.block.gen_s
    }
}

/// `later − earlier` in µs; negative when `later` came first.
fn signed_us(later: Instant, earlier: Instant) -> f64 {
    if later >= earlier {
        later.duration_since(earlier).as_secs_f64() * 1e6
    } else {
        -earlier.duration_since(later).as_secs_f64() * 1e6
    }
}

/// First sample of an unlabeled series in a Prometheus exposition.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("series `{name}` missing from the server's exposition"))
}

#[cfg(test)]
mod tests {
    use super::scrape;

    #[test]
    fn scrapes_an_unlabeled_sample() {
        let text = "# TYPE x counter\nsase_server_pushes_total 42\nsase_server_pushes_total_x 7\n";
        assert_eq!(scrape(text, "sase_server_pushes_total"), 42.0);
    }
}
