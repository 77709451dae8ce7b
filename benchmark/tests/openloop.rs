//! The fixed-rate generator times every request from when it was due, so
//! a server stall is charged to the requests queued behind it.

use pi2::server::Http1Client;
use pi2_benchmark::openloop::{evaluate, run, Sample};
use pi2_benchmark::stream::{Kind, Req};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

const INTERVAL_MS: u64 = 5;
const STALL_MS: u64 = 100;
const STALLED: usize = 10;
const REQUESTS: usize = 60;

/// A one-connection HTTP server that answers every request with a patch,
/// but sleeps `STALL_MS` before answering request `STALLED`.
fn stalled_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for i in 0.. {
            let mut length = 0;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                if line == "\r\n" {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = v.trim().parse().expect("length");
                }
            }
            let mut body = vec![0; length];
            reader.read_exact(&mut body).expect("body");
            if i == STALLED {
                std::thread::sleep(Duration::from_millis(STALL_MS));
            }
            let reply = "{\"v\":1,\"type\":\"patch\",\"seq\":1,\"views\":[]}";
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{reply}",
                reply.len()
            );
            if writer.write_all(response.as_bytes()).is_err() {
                return;
            }
        }
    });
    addr
}

#[test]
fn a_stall_shows_in_the_requests_due_during_it() {
    let addr = stalled_server();
    let mut conns = vec![Http1Client::connect(addr).expect("connect")];
    let reqs: Vec<Req> = (0..REQUESTS)
        .map(|i| Req {
            due_us: i as u64 * INTERVAL_MS * 1000,
            conn: 0,
            kind: Kind::Read,
            body: "{}".to_string(),
        })
        .collect();
    let (samples, abandoned) = run(&mut conns, &reqs, &|_| false);
    assert_eq!(abandoned, 0);
    assert_eq!(samples.len(), REQUESTS);
    assert!(samples.iter().all(|s| s.ok));
    let stall_end_ms = (STALLED as u64 * INTERVAL_MS + STALL_MS) as f64;
    // Requests due while the server stalled waited for it: their latency
    // from due covers the rest of the stall, although each one's own
    // round trip was quick.
    let due_during = (STALLED + 1)..(STALLED + (STALL_MS / INTERVAL_MS) as usize);
    for s in &samples[due_during] {
        let due_ms = (s.index as u64 * INTERVAL_MS) as f64;
        assert!(
            s.latency_ms >= stall_end_ms - due_ms - 1.0,
            "request {} due during the stall reports {:.2} ms",
            s.index,
            s.latency_ms
        );
        assert!(s.lag_ms >= stall_end_ms - due_ms - 1.0 - s.rtt_ms);
    }
    assert!(samples[STALLED].rtt_ms >= STALL_MS as f64);
    // Long after the stall the generator has caught up.
    let last = samples.last().expect("samples");
    assert!(last.latency_ms < STALL_MS as f64 / 2.0, "{last:?}");
}

/// A rung of `n` reads at 100/s whose lag is `lag(i)` ms, all answered
/// 1 ms after they were sent.
fn rung(n: usize, lag: impl Fn(usize) -> f64) -> pi2_benchmark::openloop::Rung {
    let samples: Vec<Sample> = (0..n)
        .map(|index| Sample {
            index,
            kind: Kind::Read,
            lag_ms: lag(index),
            latency_ms: lag(index) + 1.0,
            rtt_ms: 1.0,
            ok: true,
            body: None,
        })
        .collect();
    evaluate(100.0, n, &samples)
}

#[test]
fn one_stall_does_not_fail_a_rung_but_a_growing_backlog_does() {
    // A 180 ms stall late in the rung (a live append holding the write
    // lock): the requests queued behind it leave late, then the
    // connection catches up. A least-squares slope reads this as growth.
    let stalled = rung(150, |i| {
        if (120..138).contains(&i) {
            180.0 - 10.0 * (i - 120) as f64
        } else {
            0.05
        }
    });
    assert!(stalled.passed, "{stalled:?}");
    // Offered 5% above what drains: lag grows by 50 ms per second.
    let backlog = rung(150, |i| 0.5 * i as f64);
    assert!(!backlog.passed, "{backlog:?}");
    assert!((backlog.lag_growth_ms - 50.0).abs() < 1.0, "{backlog:?}");
}
