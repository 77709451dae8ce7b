//! Turning runs into the benchmark's metrics: the end-to-end set of an
//! untraced run, the per-layer set of a traced run, and the one-line JSON
//! result.

use crate::generate::{self, GenResult, SCALE_LOG};
use crate::host::Pass;
use crate::plan::Step;
use crate::serving;
use crate::setup::Serving;
use crate::stats::{median, percentile, sorted};
use crate::stream::Kind;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// A run's result: metrics by name, with units, and the failure count.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (responses, path checks and output checks).
    pub failed: u64,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// The final JSON line. Every operation must have succeeded for the
    /// run to count as correct.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The per-layer metrics every traced run reports, in order, with their
/// units. A layer a workload does not exercise reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("sql.parse_ms", "ms"),
    ("difftree.workload_ms", "ms"),
    ("search.mcts_ms", "ms"),
    ("search.map_ms", "ms"),
    ("search.iterations", "count"),
    ("search.states_evaluated", "count"),
    ("search.evals_per_iter", "ratio"),
    ("search.reward_ms_per_state", "ms"),
    ("interface.result_hit_ratio", "ratio"),
    ("interface.evict_ms", "ms"),
    ("engine.exec_p50_ms", "ms"),
    ("engine.exec_p99_ms", "ms"),
    ("engine.ivm_hit_ratio", "ratio"),
    ("engine.self_us", "us"),
    ("data.append_rows_ms", "ms"),
    ("data.live_append_ms", "ms"),
    ("core.append_ms", "ms"),
    ("core.dispatch_us", "us"),
    ("core.dispatch_self_us", "us"),
    ("core.handle_json_us", "us"),
    ("core.codec_us", "us"),
    ("server.wire_us", "us"),
    ("server.rejected", "count"),
    ("client.lag_p99_ms", "ms"),
    ("trace.event_p50_ms", "ms"),
    ("trace.top_p50_ms", "ms"),
    ("trace.layers_sum_ms", "ms"),
];

fn layered(values: &[(&str, f64)]) -> Outcome {
    let mut out = Outcome::default();
    for (name, unit) in LAYERS {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        out.put(name, value, unit);
    }
    out
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// `generate`, untraced or traced.
pub fn generate(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (rounds, errors) = generate::rounds(seed, seconds, traced);
    let all: Vec<&GenResult> = rounds.iter().flatten().collect();
    let logs = generate::round_logs();
    let spawn_failures = errors.len();
    let mut problems: Vec<String> = errors;
    // Every sample of a log must repeat the first one's work exactly: a
    // child that started warm, or a search that is not deterministic,
    // shows up here. Each generation with a problem counts as one failure.
    let mut failed_generations = 0;
    for r in &all {
        let first = all.iter().find(|f| f.log == r.log).expect("r itself");
        let mut bad = Vec::new();
        if (r.iterations, r.states, r.cost.to_bits())
            != (first.iterations, first.states, first.cost.to_bits())
        {
            bad.push("its work differs from the log's first sample");
        }
        if !r.valid {
            bad.push("its interface leaves a choice node uncovered or has an infinite cost");
        }
        if !bad.is_empty() {
            failed_generations += 1;
            problems.push(format!("{}: {}", logs[r.log].name, bad.join("; ")));
        }
    }
    let paper = |round: &Vec<GenResult>, f: &dyn Fn(&GenResult) -> f64| -> f64 {
        round.iter().filter(|r| r.log != SCALE_LOG).map(f).sum()
    };
    let scale = |round: &Vec<GenResult>, f: &dyn Fn(&GenResult) -> f64| -> f64 {
        round.iter().filter(|r| r.log == SCALE_LOG).map(f).sum()
    };
    let gen_paper: Vec<f64> = rounds.iter().map(|r| paper(r, &|g| g.gen_s)).collect();
    let gen_scale: Vec<f64> = rounds.iter().map(|r| scale(r, &|g| g.gen_s)).collect();
    let cost: f64 = rounds
        .first()
        .map_or(0.0, |r| r.iter().map(|g| g.cost).sum());
    // The paper's statistics are over logs (§1: 2–19 s, median 6 s):
    // each log's median cold generation time, then the median and the
    // maximum over the eight logs.
    let per_log: Vec<f64> = (0..logs.len())
        .map(|i| {
            median(
                &all.iter()
                    .filter(|g| g.log == i)
                    .map(|g| ms(g.gen_s))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let lat = sorted(per_log);
    let (tail_pct, tail_ms) = (100, lat.last().copied().unwrap_or(0.0));
    let busy: f64 = all.iter().map(|g| g.gen_s).sum();
    let rss = all.iter().map(|g| g.rss_kb).max().unwrap_or(0) as f64 / 1024.0;
    let first = rounds.first();
    let iterations: usize = first.map_or(0, |r| r.iter().map(|g| g.iterations).sum());
    let states: usize = first.map_or(0, |r| r.iter().map(|g| g.states).sum());

    let mut out = if traced {
        let stage = |f: &dyn Fn(&GenResult) -> f64| -> f64 {
            median(
                &rounds
                    .iter()
                    .map(|r| r.iter().map(f).sum())
                    .collect::<Vec<_>>(),
            )
        };
        let parse = stage(&|g| g.trace.parse_ms);
        let workload = stage(&|g| g.trace.workload_ms);
        let mcts = stage(&|g| g.trace.mcts_ms);
        let map = stage(&|g| g.trace.map_ms);
        let top = median(
            &rounds
                .iter()
                .map(|r| ms(r.iter().map(|g| g.gen_s).sum()))
                .collect::<Vec<_>>(),
        );
        let mut out = layered(&[
            ("sql.parse_ms", parse),
            ("difftree.workload_ms", workload),
            ("search.mcts_ms", mcts),
            ("search.map_ms", map),
            ("search.iterations", iterations as f64),
            ("search.states_evaluated", states as f64),
            (
                "search.evals_per_iter",
                states as f64 / iterations.max(1) as f64,
            ),
            ("search.reward_ms_per_state", mcts / states.max(1) as f64),
            ("trace.top_p50_ms", top),
            ("trace.layers_sum_ms", parse + workload + mcts + map),
        ]);
        for (i, log) in logs.iter().enumerate() {
            if let Some(g) = first.and_then(|r| r.iter().find(|g| g.log == i)) {
                out.line(format!(
                    "  {:>8} ({:>3} queries): parse {:.2} ms, workload {:.2} ms, mcts {:.1} ms, map {:.2} ms, {} iterations, {} states",
                    log.name, log.queries.len(), g.trace.parse_ms, g.trace.workload_ms,
                    g.trace.mcts_ms, g.trace.map_ms, g.iterations, g.states
                ));
            }
        }
        out
    } else {
        let mut out = Outcome::default();
        out.put(
            "setup_s",
            median(&all.iter().map(|g| g.setup_s).collect::<Vec<_>>()),
            "s",
        );
        out.put("event_p50_ms", median(&lat), "ms");
        out.put("gen_cost", cost, "cost");
        out.put("peak_rss_mb", rss, "MiB");
        out
    };
    out.attempted = (all.len() + spawn_failures) as u64;
    out.failed = (failed_generations + spawn_failures) as u64;
    out.line(format!(
        "generate: error_rate {} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out.line(format!(
        "generate: {} rounds of {} cold generations; gen_paper_s {:.4} s, gen_scale_s {:.4} s (medians over rounds); \
         per-log median generation time: median (event_p50_ms) {:.2} ms, slowest (event_p99_ms) p{tail_pct} {tail_ms:.2} ms (n={} logs); {iterations} iterations, \
         {states} states evaluated per round; {:.3} generations/s",
        rounds.len(),
        logs.len(),
        median(&gen_paper),
        median(&gen_scale),
        median(&lat),
        lat.len(),
        all.len() as f64 / busy,
    ));
    for p in &problems {
        out.line(format!("FAILED: {p}"));
    }
    out
}

/// An untraced serving run: the end-to-end metrics.
pub fn serving(workload: Serving, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (run, host, _) = serving::run(workload, seed, seconds, serving::SETUPS, true)?;
    host.quit()?;
    let mut out = Outcome::default();
    let (p50, (tail_pct, tail_ms), n) = serving::latency(&run.nominal, None);
    let best = run
        .rungs
        .iter()
        .filter(|r| r.passed)
        .map(|r| r.achieved)
        .fold(0.0, f64::max);
    out.put("setup_s", median(&run.setups), "s");
    out.put("event_p50_ms", p50, "ms");
    out.put("gen_cost", run.cost, "cost");
    out.put("peak_rss_mb", run.peak_rss_mb, "MiB");
    out.attempted = run.attempted;
    out.failed = run.failed;
    let (rp50, (rpct, rtail), rn) = serving::latency(&run.nominal, Some(Kind::Read));
    out.line(format!(
        "{}: nominal {:.0} req/s: event_p50_ms {p50:.4}, event_p99_ms (p{tail_pct}, n={n}) {tail_ms:.4}; \
         reads p50 {rp50:.4} ms, p{rpct} {rtail:.4} ms (n={rn})",
        workload.name(),
        run.nominal_rate,
    ));
    if workload == Serving::Live {
        let (ap50, (apct, atail), an) = serving::latency(&run.nominal, Some(Kind::Append));
        out.line(format!(
            "live: append_p50_ms {ap50:.3}, append_p99_ms (p{apct}, n={an}) {atail:.3}"
        ));
    }
    let mut at = 0;
    for (i, n) in run.chunks.iter().enumerate() {
        let chunk = &run.nominal[at..at + n];
        at += n;
        let (p50, (pct, tail), _) = serving::latency(chunk, None);
        let rtt = sorted(chunk.iter().map(|s| s.rtt_ms).collect());
        let lag = sorted(chunk.iter().map(|s| s.lag_ms).collect());
        out.line(format!(
            "  nominal chunk {i}: p50 {p50:.4} ms, p{pct} {tail:.4} ms; round trip p50 {:.4} ms; client.lag_ms p50 {:.4}, p99 {:.4}",
            percentile(&rtt, 50.0),
            percentile(&lag, 50.0),
            percentile(&lag, 99.0),
        ));
    }
    for r in &run.rungs {
        out.line(format!(
            "  rung {:>6.0}/s: {} {}/{} ok, p50 {:.3} ms, p{} {:.3} ms, client.lag_ms p99 {:.3} (slope {:+.1} ms/s), achieved {:.1}/s",
            r.rate,
            if r.passed { "pass" } else { "FAIL" },
            r.ok,
            r.planned,
            r.p50_ms,
            r.tail.0,
            r.tail.1,
            r.lag_p99_ms,
            r.lag_growth_ms,
            r.achieved
        ));
    }
    out.line(format!(
        "{}: max_eps {best:.1}/s (limit: read tail <= {} ms, no growing lag); memo hit ratio {:.4}, ivm hit ratio {:.4}, \
         {} rejected; error_rate {} ({} of {}); {} output checks passed; {} requests dropped after falling 500 ms behind; \
         host generation {:.4} s (median of {})",
        workload.name(),
        crate::openloop::LATENCY_LIMIT_MS,
        run.counters.hit_ratio(),
        run.counters.ivm_ratio(),
        run.counters.rejected,
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted,
        run.checks_passed,
        run.abandoned,
        median(&run.gens),
        run.gens.len(),
    ));
    for p in &run.problems {
        out.line(format!("FAILED: {p}"));
    }
    Ok(out)
}

/// What a trace pass printed.
#[derive(Debug, Default)]
struct PassOut {
    /// Per nominal request, by index: (kind, µs at the boundary, engine µs).
    reqs: Vec<(Kind, f64, f64)>,
    /// Engine execution of each view (µs).
    execs: Vec<f64>,
    /// Per append: Catalog::append_rows, LiveCatalog::append, eviction
    /// sweep, Pi2Service::append (µs).
    appends: Vec<[f64; 4]>,
    /// Set-up generation: parse, workload, mcts, map (ms), iterations,
    /// states evaluated.
    gen: [f64; 6],
}

fn spawn_pass(workload: Serving, pass: Pass, seed: u64, seconds: f64) -> Result<PassOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let name = if pass == Pass::Json {
        "json"
    } else {
        "dispatch"
    };
    let mut child = Command::new(exe)
        .args([
            "pass",
            workload.name(),
            name,
            &seed.to_string(),
            &seconds.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn trace pass: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut out = PassOut::default();
    let mut done = false;
    let mut bad = None;
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        let f: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        match f[0] {
            "R" => match (num(1), num(3), num(4)) {
                (Some(i), Some(total), Some(engine)) if i as usize == out.reqs.len() => {
                    let kind = if f[2] == "a" {
                        Kind::Append
                    } else {
                        Kind::Read
                    };
                    out.reqs.push((kind, total, engine));
                }
                _ => bad = Some(line.clone()),
            },
            "X" => out.execs.extend(num(1)),
            "A" => match (num(1), num(2), num(3), num(4)) {
                (Some(a), Some(b), Some(c), Some(d)) => out.appends.push([a, b, c, d]),
                _ => bad = Some(line.clone()),
            },
            "G" => {
                for (i, slot) in out.gen.iter_mut().enumerate() {
                    *slot = num(i + 1).unwrap_or(0.0);
                }
            }
            "DONE" => done = true,
            _ => bad = Some(line.clone()),
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if let Some(line) = bad {
        return Err(format!("{name} pass printed {line:?}"));
    }
    if !status.success() || !done {
        return Err(format!("{name} pass failed ({status})"));
    }
    Ok(out)
}

/// A traced serving run: the same seed and nominal stream over the wire,
/// then in-process through `handle_json`, then through
/// `Session::dispatch` with the engine, data and sweep calls beneath it —
/// each pass in a fresh process. Self times pair the passes request by
/// request.
pub fn serving_traced(workload: Serving, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (run, host, phases) = serving::run(workload, seed, seconds, 1, false)?;
    host.quit()?;
    let [Step::Nominal(nominal)] = phases.steps.as_slice() else {
        unreachable!("a traced run has one nominal step");
    };
    let json = spawn_pass(workload, Pass::Json, seed, seconds)?;
    let disp = spawn_pass(workload, Pass::Dispatch, seed, seconds)?;
    if json.reqs.len() != nominal.len() || disp.reqs.len() != nominal.len() {
        return Err(format!(
            "passes replayed {} and {} requests of {}",
            json.reqs.len(),
            disp.reqs.len(),
            nominal.len()
        ));
    }
    let (mut wire, mut hj, mut dispatch) = (Vec::new(), Vec::new(), Vec::new());
    let (mut server_self, mut codec, mut dispatch_self, mut engine) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in run.nominal.iter().filter(|s| s.kind == Kind::Read && s.ok) {
        let w = s.rtt_ms * 1e3;
        let h = json.reqs[s.index].1;
        let (_, d, e) = disp.reqs[s.index];
        wire.push(w);
        hj.push(h);
        dispatch.push(d);
        server_self.push(w - h);
        codec.push(h - d);
        dispatch_self.push(d - e);
        engine.push(e);
    }
    let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 50.0);
    let selfs = [
        ("server.wire_us", p50(&server_self)),
        ("core.codec_us", p50(&codec)),
        ("core.dispatch_self_us", p50(&dispatch_self)),
        ("engine.self_us", p50(&engine)),
    ];
    let layers_sum_ms = selfs.iter().map(|(_, v)| v).sum::<f64>() / 1e3;
    let top_ms = p50(&wire) / 1e3;
    let execs = sorted(disp.execs.iter().map(|u| u / 1e3).collect());
    let split = |i: usize| p50(&disp.appends.iter().map(|a| a[i] / 1e3).collect::<Vec<_>>());
    let [parse, workload_ms, mcts, map, iterations, states] = disp.gen;
    let (event_p50, _, _) = serving::latency(&run.nominal, None);
    let lag = sorted(run.nominal.iter().map(|s| s.lag_ms).collect());
    let mut values = vec![
        ("sql.parse_ms", parse),
        ("difftree.workload_ms", workload_ms),
        ("search.mcts_ms", mcts),
        ("search.map_ms", map),
        ("search.iterations", iterations),
        ("search.states_evaluated", states),
        ("search.evals_per_iter", states / iterations.max(1.0)),
        ("search.reward_ms_per_state", mcts / states.max(1.0)),
        ("interface.result_hit_ratio", run.counters.hit_ratio()),
        ("interface.evict_ms", split(2)),
        ("engine.exec_p50_ms", percentile(&execs, 50.0)),
        ("engine.exec_p99_ms", percentile(&execs, 99.0)),
        ("engine.ivm_hit_ratio", run.counters.ivm_ratio()),
        ("data.append_rows_ms", split(0)),
        ("data.live_append_ms", split(1)),
        ("core.append_ms", split(3)),
        ("core.dispatch_us", p50(&dispatch)),
        ("core.handle_json_us", p50(&hj)),
        ("server.rejected", run.counters.rejected as f64),
        ("client.lag_p99_ms", percentile(&lag, 99.0)),
        ("trace.event_p50_ms", event_p50),
        ("trace.top_p50_ms", top_ms),
        ("trace.layers_sum_ms", layers_sum_ms),
    ];
    values.extend(selfs);
    let mut out = layered(&values);
    out.attempted = run.attempted;
    out.failed = run.failed;
    out.line(format!(
        "{} traced: wire round trip p50 {top_ms:.4} ms over {} reads; self times p50: server {:.1} us, codec {:.1} us, \
         dispatch {:.1} us, engine {:.1} us; sum {layers_sum_ms:.4} ms ({:+.1}% of the round trip); \
         event p50 from due {event_p50:.4} ms",
        workload.name(),
        wire.len(),
        selfs[0].1,
        selfs[1].1,
        selfs[2].1,
        selfs[3].1,
        100.0 * (layers_sum_ms - top_ms) / top_ms.max(f64::MIN_POSITIVE),
    ));
    if !disp.appends.is_empty() {
        out.line(format!(
            "{} appends (p50 over {}): Catalog::append_rows {:.3} ms, LiveCatalog::append {:.3} ms, \
             eviction sweep {:.3} ms, Pi2Service::append {:.3} ms",
            workload.name(),
            disp.appends.len(),
            split(0),
            split(1),
            split(2),
            split(3)
        ));
    }
    for p in &run.problems {
        out.line(format!("FAILED: {p}"));
    }
    Ok(out)
}
