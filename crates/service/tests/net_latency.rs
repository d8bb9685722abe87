//! Reply latency over loopback.
//!
//! A reply whose length prefix and body leave in separate `write`s on a
//! socket without `TCP_NODELAY` waits for the peer's delayed ACK (about
//! 40 ms on Linux loopback) before its body is sent.  These tests pin
//! the two halves of the fix: each frame is one `write`, and a
//! sequential stream of small round trips runs at loopback speed.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_optimizer::Query;
use rqo_service::net::{NetClient, NetServer, NetServerConfig};
use rqo_service::proto::{write_frame, Request, Response, RunMode};
use rqo_service::{Engine, QueryService, ServiceConfig};

/// A sink that accepts every byte and counts `write` calls.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn write_frame_issues_one_write_per_frame() {
    let frames = [
        Request::Ping { nonce: 7 }.encode(),
        Request::Run {
            id: 1,
            mode: RunMode::Run,
            deadline_ms: 0,
            query: Query::over(&["part"]).aggregate(AggExpr::count_star("n")),
        }
        .encode(),
        Response::Pong { nonce: 7 }.encode(),
    ];
    let mut sink = CountingWriter::default();
    let mut expected = Vec::new();
    for (i, body) in frames.iter().enumerate() {
        write_frame(&mut sink, body).unwrap();
        assert_eq!(sink.writes, i + 1, "frame {i} took more than one write");
        expected.extend_from_slice(&(body.len() as u32).to_le_bytes());
        expected.extend_from_slice(body);
    }
    assert_eq!(sink.bytes, expected, "prefix + body, back to back");
}

#[test]
fn sequential_small_replies_do_not_stall() {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let service = QueryService::new(Engine::new(data.into_catalog()), ServiceConfig::default());
    let server =
        NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let query = Query::over(&["part"]).aggregate(AggExpr::count_star("n"));
    // Plan once outside the timed loop, as a warm server would have.
    let expected = client.run(&query).expect("warm-up run").rows;
    assert_eq!(expected.len(), 1, "COUNT(*) is one row");

    let start = Instant::now();
    for _ in 0..200 {
        client.ping().expect("ping");
    }
    for _ in 0..200 {
        assert_eq!(client.run(&query).expect("run").rows, expected);
    }
    let elapsed = start.elapsed();
    // 400 round trips: a 40 ms delayed-ACK stall on each would take 16 s.
    assert!(
        elapsed < Duration::from_secs(2),
        "400 loopback round trips took {elapsed:?}; replies are stalling"
    );
}
