//! Client side of the serving workloads: boots the server host, drives
//! the seeded stream open-loop, reads `/metrics` to prove the workload ran
//! the path it is named for, and checks sampled outputs against oracles.

use crate::host::vm_hwm_kb;
use crate::openloop::{self, evaluate, Rung, Sample, Transport};
use crate::plan::{self, Phases, Spec, Step};
use crate::setup::{Facts, Serving, BIG};
use crate::stats::{percentile, sorted, tail};
use crate::stream::{Kind, Source};
use pi2::server::Http1Client;
use pi2::{event_from_json, Json};
use pi2_workloads::big::SplitMix64;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A running server host process. Killed on drop if not quit.
pub struct HostProc {
    child: Child,
    stdin: ChildStdin,
    lines: Lines<BufReader<ChildStdout>>,
    /// Where it serves HTTP.
    pub addr: SocketAddr,
    /// Spawn until the server accepted (s).
    pub setup_s: f64,
    /// Its cold generation wall time (s).
    pub gen_s: f64,
    /// The interface facts it announced.
    pub facts: Facts,
}

impl HostProc {
    /// Spawn a server host and wait until it announces `READY`.
    pub fn spawn(workload: Serving) -> Result<HostProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(["host", workload.name()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn host: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut cycles: Vec<(String, Vec<pi2::Event>)> = Vec::new();
        loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("host exited before READY".into());
                }
            };
            let f: Vec<&str> = line.splitn(3, ' ').collect();
            match f.as_slice() {
                ["CYCLE", name, event] => {
                    let event = event_from_json(event).map_err(|e| e.to_string())?;
                    match cycles.last_mut() {
                        Some((n, c)) if n == name => c.push(event),
                        _ => cycles.push((name.to_string(), vec![event])),
                    }
                }
                ["READY", ..] => {
                    let setup_s = start.elapsed().as_secs_f64();
                    let r: Vec<&str> = line.split(' ').collect();
                    let bad = || format!("malformed READY line {line:?}");
                    if r.len() != 8 {
                        return Err(bad());
                    }
                    let int = |i: usize| r[i].parse::<i64>().map_err(|_| bad());
                    let slider = if r[4] == "true" {
                        Some((int(5)? as usize, int(6)?, int(7)?))
                    } else {
                        None
                    };
                    return Ok(HostProc {
                        addr: r[1].parse().map_err(|_| bad())?,
                        setup_s,
                        gen_s: r[2].parse().map_err(|_| bad())?,
                        facts: Facts {
                            cost: r[3].parse().map_err(|_| bad())?,
                            cycles,
                            slider,
                        },
                        child,
                        stdin,
                        lines,
                    });
                }
                _ => return Err(format!("unexpected host line {line:?}")),
            }
        }
    }

    /// Ask the host to check a returned patch against an oracle.
    pub fn check(&mut self, mode: &str, workload: &str, body: &str) -> Result<(), String> {
        writeln!(self.stdin, "CHECK {mode} {workload} {body}").map_err(|e| e.to_string())?;
        self.stdin.flush().map_err(|e| e.to_string())?;
        match self.lines.next() {
            Some(Ok(line)) if line == "OK" => Ok(()),
            Some(Ok(line)) => Err(line),
            _ => Err("host went away during a check".into()),
        }
    }

    /// Peak resident set of the host (MiB).
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_kb(&self.child.id().to_string()).unwrap_or(0) as f64 / 1024.0
    }

    /// Shut the host down and wait for it.
    pub fn quit(mut self) -> Result<(), String> {
        let _ = writeln!(self.stdin, "QUIT");
        let _ = self.stdin.flush();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("host exited with {status}"))
        }
    }
}

impl Drop for HostProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `/metrics` counters the path checks and ratios read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Result-memo hits.
    pub hits: i64,
    /// Result-memo misses.
    pub misses: i64,
    /// Append-aware lookups served by IVM.
    pub ivm_hits: i64,
    /// Append-aware lookups that fell back to full execution.
    pub ivm_fallbacks: i64,
    /// Catalogue epochs advanced by appends.
    pub epoch_bumps: i64,
    /// Requests and connections refused (429 and 503).
    pub rejected: i64,
}

impl Counters {
    fn fetch(client: &mut Http1Client) -> Result<Counters, String> {
        let resp = client.get("/metrics").map_err(|e| e.to_string())?;
        let j = Json::parse(&resp.body).map_err(|e| e.to_string())?;
        let get = |path: &[&str]| -> Result<i64, String> {
            let mut v = Some(&j);
            for key in path {
                v = v.and_then(|v| v.get(key));
            }
            v.and_then(Json::as_i64)
                .ok_or_else(|| format!("/metrics lacks {}", path.join(".")))
        };
        Ok(Counters {
            hits: get(&["service", "resultCache", "hits"])?,
            misses: get(&["service", "resultCache", "misses"])?,
            ivm_hits: get(&["service", "live", "ivmHits"])?,
            ivm_fallbacks: get(&["service", "live", "ivmFallbacks"])?,
            epoch_bumps: get(&["service", "live", "epochBumps"])?,
            rejected: get(&["server", "backpressureRejections"])?
                + get(&["server", "rejectedConnections"])?,
        })
    }

    fn minus(self, earlier: Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            ivm_hits: self.ivm_hits - earlier.ivm_hits,
            ivm_fallbacks: self.ivm_fallbacks - earlier.ivm_fallbacks,
            epoch_bumps: self.epoch_bumps - earlier.epoch_bumps,
            rejected: self.rejected - earlier.rejected,
        }
    }

    /// Result-memo hits per lookup.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    /// IVM hits per append-aware lookup.
    pub fn ivm_ratio(&self) -> f64 {
        ratio(self.ivm_hits, self.ivm_hits + self.ivm_fallbacks)
    }
}

fn ratio(a: i64, b: i64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Nominal-phase reads whose patches the oracle re-checks.
const CHECK_SAMPLES: usize = 4;

/// Appends the live stream continues through after the ladder.
const LIVE_POST_APPENDS: usize = 2;

/// Reads after each of those appends checked against a from-scratch
/// execution: two visits of every live state.
const LIVE_CHECKS_PER_APPEND: usize = 8;

/// A connected client: one connection per stream lane, sessions opened.
struct Client {
    conns: Vec<Http1Client>,
    names: Vec<String>,
    sessions: Vec<u64>,
}

fn connect(workload: Serving, host: &HostProc, spec: &Spec) -> Result<Client, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if spec.conns > cores {
        return Err(format!(
            "{} needs {} client connections and threads but only {cores} cores exist",
            workload.name(),
            spec.conns
        ));
    }
    let names: Vec<String> = match workload {
        Serving::Interact => host.facts.cycles.iter().map(|(n, _)| n.clone()).collect(),
        _ => vec![BIG.to_string()],
    };
    let mut conns = Vec::new();
    for _ in 0..spec.conns {
        conns.push(Http1Client::connect(host.addr).map_err(|e| e.to_string())?);
    }
    let mut sessions = Vec::new();
    for (conn, name) in conns.iter_mut().zip(&names) {
        sessions.push(pi2_bench::load::open_session(conn, name).map_err(|e| e.to_string())?);
    }
    Ok(Client {
        conns,
        names,
        sessions,
    })
}

/// What a serving run measured.
#[derive(Debug, Default)]
pub struct ServingRun {
    /// Set-up times (s).
    pub setups: Vec<f64>,
    /// The nominal offered rate (requests/s).
    pub nominal_rate: f64,
    /// Host generation times (s).
    pub gens: Vec<f64>,
    /// Summed cost of the served interfaces.
    pub cost: f64,
    /// Nominal-phase samples.
    pub nominal: Vec<Sample>,
    /// Samples per nominal chunk, in order (they are consecutive in
    /// `nominal`).
    pub chunks: Vec<usize>,
    /// Every measured sample (nominal phase and ladder).
    pub measured: Vec<Sample>,
    /// Replies kept for the output checks: (connection, body).
    pub kept: Vec<(usize, String)>,
    /// Ladder rungs.
    pub rungs: Vec<Rung>,
    /// Counter deltas over the measured phases.
    pub counters: Counters,
    /// Peak resident set of the host (MiB).
    pub peak_rss_mb: f64,
    /// Requests sent (warm-up, measured and check requests).
    pub attempted: u64,
    /// Failed requests plus failed output checks.
    pub failed: u64,
    /// Requests dropped because their connection fell behind.
    pub abandoned: usize,
    /// Path and output check failures, as messages.
    pub problems: Vec<String>,
    /// Output checks passed.
    pub checks_passed: usize,
}

impl ServingRun {
    fn absorb(&mut self, samples: &[Sample], abandoned: usize) {
        self.attempted += samples.len() as u64;
        self.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        self.abandoned += abandoned;
    }
}

/// Run a serving workload: `setups` host set-ups (the last one serves),
/// warm-up, the nominal phase, and with `ladder` the rate ladder, then
/// the path and output checks.
pub fn run(
    workload: Serving,
    seed: u64,
    seconds: f64,
    setups: usize,
    ladder: bool,
) -> Result<(ServingRun, HostProc, Phases), String> {
    let mut out = ServingRun::default();
    let mut host = None;
    for i in 0..setups {
        let h = HostProc::spawn(workload)?;
        out.setups.push(h.setup_s);
        out.gens.push(h.gen_s);
        if i + 1 < setups {
            h.quit()?;
        } else {
            host = Some(h);
        }
    }
    let mut host = host.expect("at least one set-up");
    out.cost = host.facts.cost;
    let spec = plan::spec(workload, &host.facts);
    out.nominal_rate = spec.nominal;
    let mut client = connect(workload, &host, &spec)?;
    let mut source = plan::source(workload, seed, &host.facts, &client.sessions);
    let phases = plan::phases(&spec, source.as_mut(), seconds, ladder)?;

    out.attempted += phases.warmup.len() as u64;
    out.failed += openloop::run_closed(&mut client.conns, &phases.warmup) as u64;
    let (samples, abandoned) = openloop::run(&mut client.conns, &phases.preroll, &|_| false);
    out.absorb(&samples, abandoned);
    let before = Counters::fetch(&mut client.conns[0])?;
    let mut rng = SplitMix64::new(seed ^ 0xC4EC);
    let mut first = true;
    for step in &phases.steps {
        match step {
            Step::Nominal(reqs) => {
                // Output checks sample replies of the first chunk.
                let sampled: Vec<usize> = (0..if first { CHECK_SAMPLES } else { 0 })
                    .map(|_| rng.below(reqs.len().max(1) as u64) as usize)
                    .collect();
                let keep = |i: usize| sampled.contains(&i);
                let (samples, abandoned) = openloop::run(&mut client.conns, reqs, &keep);
                out.absorb(&samples, abandoned);
                // Latency at the nominal rate must not drop requests: one
                // abandoned there is a failure, not a missing sample.
                if abandoned > 0 {
                    out.attempted += abandoned as u64;
                    out.failed += abandoned as u64;
                    out.problems.push(format!(
                        "{abandoned} nominal-rate requests fell 500 ms behind and were dropped"
                    ));
                }
                out.measured.extend(samples.iter().cloned());
                for s in &samples {
                    if let Some(body) = &s.body {
                        out.kept.push((reqs[s.index].conn, body.clone()));
                    }
                }
                out.chunks.push(samples.len());
                out.nominal.extend(samples);
                first = false;
            }
            Step::Rung(rate, reqs) => {
                let (samples, abandoned) = openloop::run(&mut client.conns, reqs, &|_| false);
                out.absorb(&samples, abandoned);
                out.rungs.push(evaluate(*rate, reqs.len(), &samples));
                out.measured.extend(samples);
            }
        }
    }
    let after = Counters::fetch(&mut client.conns[0])?;
    out.counters = after.minus(before);
    path_check(workload, &mut out);
    // Read before the output checks: the row-interpreter oracle runs in
    // the host and its memory is not the system's.
    out.peak_rss_mb = host.peak_rss_mb();
    output_checks(workload, &mut out, &mut host, &mut client, source.as_mut());
    Ok((out, host, phases))
}

/// Fail a workload that ran another path than the one it is named for.
fn path_check(workload: Serving, out: &mut ServingRun) {
    let c = out.counters;
    let reads = out.measured.iter().filter(|s| s.kind == Kind::Read).count() as i64;
    let acked = out
        .measured
        .iter()
        .filter(|s| s.kind == Kind::Append && s.ok)
        .count() as i64;
    let problem = match workload {
        Serving::Interact if c.hit_ratio() < 0.99 => Some(format!(
            "interact must be served from the result memo: hit ratio {:.4} < 0.99",
            c.hit_ratio()
        )),
        Serving::ExploreBig if c.misses != reads => Some(format!(
            "explore_big must miss the result memo on every read: {} misses for {reads} reads",
            c.misses
        )),
        Serving::Live if c.ivm_hits == 0 => {
            Some("live must serve post-append reads through IVM: no ivmHits".to_string())
        }
        Serving::Live if c.epoch_bumps != acked => Some(format!(
            "live must bump one epoch per acknowledged append: {} bumps for {acked} appends",
            c.epoch_bumps
        )),
        _ => None,
    };
    out.attempted += 1;
    out.failed += problem.is_some() as u64;
    out.problems.extend(problem);
}

fn output_checks(
    workload: Serving,
    out: &mut ServingRun,
    host: &mut HostProc,
    client: &mut Client,
    source: &mut dyn Source,
) {
    let checked = |out: &mut ServingRun, result: Result<(), String>| {
        out.attempted += 1;
        match result {
            Ok(()) => out.checks_passed += 1,
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("output check: {e}"));
            }
        }
    };
    match workload {
        Serving::Interact | Serving::ExploreBig => {
            for (conn, body) in std::mem::take(&mut out.kept) {
                let result = host.check("scalar", &client.names[conn], &body);
                checked(out, result);
            }
        }
        Serving::Live => {
            // Closed-loop continuation of the stream: each read is checked
            // before the next request can append again, so the host's
            // current snapshot is the one the read was answered from.
            let (mut acked, mut since) = (0, 0);
            for _ in 0..(LIVE_POST_APPENDS + 1) * plan::LIVE_APPEND_EVERY {
                if acked == LIVE_POST_APPENDS && since == LIVE_CHECKS_PER_APPEND {
                    break;
                }
                let Some((conn, kind, body)) = source.next() else {
                    break;
                };
                out.attempted += 1;
                let reply = client.conns[conn].round_trip(&body);
                let ok = matches!(&reply, Ok((s, b)) if openloop::reply_ok(kind, *s, b));
                if !ok {
                    out.failed += 1;
                    out.problems
                        .push(format!("post-run {kind:?} failed: {reply:?}"));
                    continue;
                }
                let (_, reply) = reply.expect("checked ok");
                if kind == Kind::Append {
                    acked += 1;
                    since = 0;
                } else if acked > 0 && since < LIVE_CHECKS_PER_APPEND {
                    since += 1;
                    let result = host.check("fresh", BIG, &reply);
                    checked(out, result);
                }
            }
        }
    }
}

/// Summary of a run's nominal phase: (p50, tail (pct, ms), samples).
pub fn latency(samples: &[Sample], kind: Option<Kind>) -> (f64, (f64, f64), usize) {
    let lat = sorted(
        samples
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.latency_ms)
            .collect(),
    );
    (percentile(&lat, 50.0), tail(&lat), lat.len())
}
