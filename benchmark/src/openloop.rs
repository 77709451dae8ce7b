//! The open-loop client: each connection sends its requests when they
//! are due, whether or not the system kept up, and every latency is timed
//! from the due time, so a stall also charges the requests queued behind
//! it. How late each send left (`lag`) is recorded beside it.

use crate::stats::{percentile, sorted, tail};
use crate::stream::{Kind, Req};
use pi2::server::Http1Client;
use std::io;
use std::time::{Duration, Instant};

/// The interactive feedback budget (ms) a rung's read tail must meet.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// A connection's requests are abandoned once sends run this late: the
/// rung has already failed and the rest would only prolong the run.
const GIVE_UP_LAG: Duration = Duration::from_millis(500);

/// Sleep until this close to a due time, then spin, so timer slack does
/// not show up as lag. Kept short: a spinning client takes a core from
/// the system it measures.
const SPIN: Duration = Duration::from_micros(60);

/// A blocking request/response channel to the system.
pub trait Transport: Send {
    /// Send one request body and wait for the `(status, body)` reply.
    fn round_trip(&mut self, body: &str) -> io::Result<(u16, String)>;
}

impl Transport for Http1Client {
    fn round_trip(&mut self, body: &str) -> io::Result<(u16, String)> {
        let resp = self.post("/v1", body)?;
        Ok((resp.status, resp.body))
    }
}

/// One sent request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in its phase's schedule.
    pub index: usize,
    /// Read or append.
    pub kind: Kind,
    /// How late the send left, in ms.
    pub lag_ms: f64,
    /// Due time to complete response, in ms.
    pub latency_ms: f64,
    /// Send to complete response, in ms.
    pub rtt_ms: f64,
    /// The reply had the right status and type.
    pub ok: bool,
    /// The reply body, kept when the caller asked for it.
    pub body: Option<String>,
}

/// Whether a reply is the success response for its request kind.
pub fn reply_ok(kind: Kind, status: u16, body: &str) -> bool {
    let want = match kind {
        Kind::Read => "\"type\":\"patch\"",
        Kind::Append => "\"type\":\"appended\"",
    };
    status == 200 && body.contains(want)
}

/// Send `reqs` open-loop over `conns` (request `r` on `conns[r.conn]`),
/// one thread per connection. Returns the samples in schedule order and
/// how many requests were abandoned after a connection fell
/// [`GIVE_UP_LAG`] behind. `keep(i)` selects replies to keep.
pub fn run<T: Transport>(
    conns: &mut [T],
    reqs: &[Req],
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> (Vec<Sample>, usize) {
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<(Vec<Sample>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut abandoned = 0;
                    let mine = reqs.iter().enumerate().filter(|(_, r)| r.conn == c);
                    for (index, req) in mine {
                        let due = start + Duration::from_micros(req.due_us);
                        let now = Instant::now();
                        if now > due + GIVE_UP_LAG {
                            abandoned += 1;
                            continue;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        let reply = conn.round_trip(&req.body);
                        let done = Instant::now();
                        let ok = matches!(&reply, Ok((s, b)) if reply_ok(req.kind, *s, b));
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        out.push(Sample {
                            index,
                            kind: req.kind,
                            lag_ms: ms(sent - due),
                            latency_ms: ms(done - due),
                            rtt_ms: ms(done - sent),
                            ok,
                            body: reply.ok().filter(|_| keep(index)).map(|(_, b)| b),
                        });
                    }
                    (out, abandoned)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let abandoned = results.iter().map(|(_, a)| a).sum();
    let mut samples: Vec<Sample> = results.into_iter().flat_map(|(s, _)| s).collect();
    samples.sort_by_key(|s| s.index);
    (samples, abandoned)
}

/// Sleep, then spin, until `due`.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Send `reqs` one after another, each after the previous reply — the
/// warm-up, which must leave the system in the same state every time.
/// Returns the number of failed requests.
pub fn run_closed<T: Transport>(conns: &mut [T], reqs: &[Req]) -> usize {
    reqs.iter()
        .filter(|r| {
            let reply = conns[r.conn].round_trip(&r.body);
            !matches!(&reply, Ok((s, b)) if reply_ok(r.kind, *s, b))
        })
        .count()
}

/// One fixed-rate step of the rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate (requests/s).
    pub rate: f64,
    /// Requests scheduled.
    pub planned: usize,
    /// Requests answered successfully.
    pub ok: usize,
    /// Requests answered with a failure.
    pub failed: usize,
    /// Read latency p50 from due (ms).
    pub p50_ms: f64,
    /// Read latency tail from due: (percentile, ms).
    pub tail: (f64, f64),
    /// Lag p99 (ms).
    pub lag_p99_ms: f64,
    /// Robust slope of lag over due time (ms of lag per s, see
    /// [`growth`]): a backlog that builds raises it.
    pub lag_growth_ms: f64,
    /// Completed requests per second, first due time to last reply.
    pub achieved: f64,
    /// The rung met the latency limit with every request answered and no
    /// growing backlog.
    pub passed: bool,
}

/// A backlog counts as growing when lag rises faster than this (ms per s
/// of schedule): offered load at least 2% above what the system drains.
const LAG_GROWTH_LIMIT_MS: f64 = 20.0;

/// Consecutive windows a rung's lags are cut into for [`growth`].
const GROWTH_WINDOWS: usize = 10;

/// How fast lag grows over a rung (ms per s): the median of the pairwise
/// slopes (Theil–Sen) between per-window medians of `(due s, lag ms)`.
/// A backlog raises every window; the spike of one slow request (a live
/// append holding the write lock) lifts one window and moves neither
/// median, where a least-squares fit would swing with where it fell.
/// `points` are in schedule order; 0 for fewer than two windows.
fn growth(points: &[(f64, f64)]) -> f64 {
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let windows = GROWTH_WINDOWS.min(points.len());
    let centres: Vec<(f64, f64)> = (0..windows)
        .map(|w| {
            let part = &points[points.len() * w / windows..points.len() * (w + 1) / windows];
            (
                median(part.iter().map(|p| p.0).collect()),
                median(part.iter().map(|p| p.1).collect()),
            )
        })
        .collect();
    let mut slopes = Vec::new();
    for (i, a) in centres.iter().enumerate() {
        for b in &centres[i + 1..] {
            if b.0 != a.0 {
                slopes.push((b.1 - a.1) / (b.0 - a.0));
            }
        }
    }
    if slopes.is_empty() {
        0.0
    } else {
        median(slopes)
    }
}

/// Judge one rung from its samples.
pub fn evaluate(rate: f64, planned: usize, samples: &[Sample]) -> Rung {
    let reads = sorted(
        samples
            .iter()
            .filter(|s| s.kind == Kind::Read)
            .map(|s| s.latency_ms)
            .collect(),
    );
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
    let points: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| (s.index as f64 / rate, s.lag_ms))
        .collect();
    let lag_growth_ms = growth(&points);
    let failed = samples.iter().filter(|s| !s.ok).count();
    let ok = samples.len() - failed;
    let span_s = samples
        .iter()
        .map(|s| s.index as f64 / rate + s.latency_ms / 1e3)
        .fold(0.0, f64::max);
    let achieved = if span_s > 0.0 {
        ok as f64 / span_s
    } else {
        0.0
    };
    let tail = tail(&reads);
    let passed = failed == 0
        && samples.len() == planned
        && tail.1 <= LATENCY_LIMIT_MS
        && lag_growth_ms <= LAG_GROWTH_LIMIT_MS;
    Rung {
        rate,
        planned,
        ok,
        failed,
        p50_ms: percentile(&reads, 50.0),
        tail,
        lag_p99_ms: percentile(&sorted(lags), 99.0),
        lag_growth_ms,
        achieved,
        passed,
    }
}
