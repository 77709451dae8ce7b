//! The request plan of each serving workload: its connections, rates and
//! seeded sources. The wire run and every trace pass build their streams
//! here from the same seed, so they replay the same requests.

use crate::setup::{Facts, Serving, BIG, BIG_TABLE};
use crate::stream::{schedule, shuffle, ExploreSource, InteractSource, LiveSource, Req, Source};
use pi2_workloads::big::SplitMix64;

/// Share of the measured seconds spent at the nominal rate; the rest is
/// split evenly over the rate ladder.
pub const NOMINAL_SHARE: f64 = 0.5;

/// How a serving workload offers load.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Client connections (and threads); at most the core count.
    pub conns: usize,
    /// The fixed offered rate latency is reported at (requests/s).
    pub nominal: f64,
    /// The fixed rate ladder `max_eps` climbs (requests/s).
    pub ladder: Vec<f64>,
    /// Requests sent one after another before measuring.
    pub warmup: usize,
    /// Seconds of unmeasured load at the nominal rate after the warm-up:
    /// an idle CPU runs slower for its first seconds of work, and a
    /// workload with a short set-up starts on an idle CPU.
    pub preroll_s: f64,
}

/// Distinct states the live reads visit in turn.
const LIVE_STATES: usize = 4;

/// Every `LIVE_APPEND_EVERY`-th live request is an append. A one-row
/// append holds the catalogue's write lock for ~150–250 ms at 10^6 rows,
/// and reads arriving meanwhile wait for it: at the nominal rate this
/// spacing (one append per 2 s) keeps that to about a tenth of the reads,
/// so the read p50 sits inside the unblocked mode instead of on the edge
/// between the two modes, where it jumped run to run.
pub const LIVE_APPEND_EVERY: usize = 80;

/// Explore events sent before measuring (each consumes a fresh state).
const EXPLORE_WARMUP: usize = 8;

/// The load shape of a workload.
pub fn spec(workload: Serving, facts: &Facts) -> Spec {
    match workload {
        Serving::Interact => Spec {
            conns: 2,
            nominal: 8000.0,
            ladder: vec![8000.0, 10000.0, 12000.0, 14000.0, 16000.0, 18000.0],
            // Two laps of every cycle: after them every state is cached.
            warmup: 2 * facts.cycles.iter().map(|(_, c)| c.len()).sum::<usize>(),
            preroll_s: 3.0,
        },
        Serving::ExploreBig => Spec {
            conns: 1,
            nominal: 20.0,
            ladder: vec![40.0, 55.0, 70.0, 85.0, 100.0, 115.0],
            warmup: EXPLORE_WARMUP,
            preroll_s: 1.0,
        },
        Serving::Live => Spec {
            conns: 2,
            nominal: 40.0,
            ladder: vec![40.0, 60.0, 80.0, 100.0, 120.0, 140.0],
            // Two appends, each followed by reads of every state: the
            // first builds each state's IVM state, the second absorbs.
            warmup: 2 * LIVE_APPEND_EVERY,
            preroll_s: 1.0,
        },
    }
}

/// The thresholds the big-tier log's own queries use: registration
/// pre-executes them, so a sweep that must miss the memo skips them.
pub fn logged_thresholds() -> Vec<i64> {
    pi2_bench::load::big_queries()
        .iter()
        .filter_map(|q| q.split("deaths > ").nth(1)?.split(' ').next()?.parse().ok())
        .collect()
}

/// The seeded source of a workload's requests over the given wire
/// session ids (one per registered interface; live appends need none).
pub fn source(workload: Serving, seed: u64, facts: &Facts, sessions: &[u64]) -> Box<dyn Source> {
    match workload {
        Serving::Interact => Box::new(InteractSource::new(
            seed,
            facts.cycles.iter().map(|(_, c)| c.clone()).collect(),
            sessions.to_vec(),
        )),
        Serving::ExploreBig => {
            let (ix, lo, hi) = facts.slider.expect("the big-tier interface has a slider");
            Box::new(ExploreSource::new(
                seed,
                sessions[0],
                ix,
                (lo, hi),
                &logged_thresholds(),
            ))
        }
        Serving::Live => {
            let (ix, lo, hi) = facts.slider.expect("the big-tier interface has a slider");
            let mut all: Vec<i64> = (lo..=hi).collect();
            shuffle(&mut SplitMix64::new(seed ^ 0x57A7E), &mut all);
            all.truncate(LIVE_STATES);
            Box::new(LiveSource::new(
                seed,
                sessions[0],
                ix,
                all,
                LIVE_APPEND_EVERY,
                BIG,
                BIG_TABLE,
                pi2_workloads::big::covid_big(256),
            ))
        }
    }
}

/// One measured step of a run.
#[derive(Debug, Clone)]
pub enum Step {
    /// A chunk at the nominal rate; latency metrics pool every chunk.
    Nominal(Vec<Req>),
    /// A rung of the rate ladder at the given rate.
    Rung(f64, Vec<Req>),
}

/// A run's requests in the order they are sent.
#[derive(Debug, Clone)]
pub struct Phases {
    /// Sent one after another, not measured.
    pub warmup: Vec<Req>,
    /// Sent open-loop at the nominal rate, not measured.
    pub preroll: Vec<Req>,
    /// The measured steps.
    pub steps: Vec<Step>,
}

/// Lay out a run measuring `seconds`. With `ladder`, the nominal time is
/// cut into one chunk per rung and each chunk is followed by its rung,
/// so the nominal samples spread over the whole run; without it (the
/// traced run) the nominal time is one chunk. Fails when the source
/// cannot supply every planned request.
pub fn phases(
    spec: &Spec,
    source: &mut dyn Source,
    seconds: f64,
    ladder: bool,
) -> Result<Phases, String> {
    let mut take = |rate: f64, count: usize| {
        let reqs = schedule(source, rate, count);
        if reqs.len() == count {
            Ok(reqs)
        } else {
            Err(format!(
                "the request stream runs dry: {seconds} s needs more distinct states than the interface offers"
            ))
        }
    };
    let warmup = take(spec.nominal, spec.warmup)?;
    let preroll = take(
        spec.nominal,
        (spec.nominal * spec.preroll_s).round() as usize,
    )?;
    let nominal = (spec.nominal * seconds * NOMINAL_SHARE).round() as usize;
    let mut steps = Vec::new();
    if ladder {
        let chunks = spec.ladder.len();
        let per_rung = seconds * (1.0 - NOMINAL_SHARE) / chunks as f64;
        for (i, &rate) in spec.ladder.iter().enumerate() {
            let count = nominal * (i + 1) / chunks - nominal * i / chunks;
            steps.push(Step::Nominal(take(spec.nominal, count)?));
            steps.push(Step::Rung(
                rate,
                take(rate, (rate * per_rung).round() as usize)?,
            ));
        }
    } else {
        steps.push(Step::Nominal(take(spec.nominal, nominal)?));
    }
    Ok(Phases {
        warmup,
        preroll,
        steps,
    })
}
