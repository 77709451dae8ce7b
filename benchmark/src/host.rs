//! The processes that host the system: the HTTP server host a serving
//! workload talks to, and the in-process trace passes. Each runs in a
//! fresh process because the memos are process-global: a pass only sees
//! the cache state of the measured run if it starts from nothing and
//! replays the same requests.

use crate::openloop::{reply_ok, wait_until};
use crate::plan;
use crate::setup::{self, Hosted, Serving};
use crate::stream::Kind;
use pi2::server::ServerConfig;
use pi2::{event_to_json, patch_from_json, patch_to_json, Patch, PatchView, Request};
use pi2_engine::{execute, execute_scalar, ExecContext};
use pi2_interface::global_eval_cache;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`, kB) of a process, from `/proc`.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Serve `workload` over HTTP until told to quit. Announces the facts a
/// client needs (`CYCLE` lines, then `READY`), then answers `CHECK`
/// commands on stdin until `QUIT` or end of input.
pub fn serve(workload: Serving) -> Result<(), String> {
    let hosted = setup::host(workload, false);
    let facts = setup::facts(&hosted, workload);
    let server = pi2::serve(Arc::clone(&hosted.service), ServerConfig::default())
        .map_err(|e| format!("server failed to start: {e}"))?;
    for (name, cycle) in &facts.cycles {
        for event in cycle {
            say(&format!("CYCLE {name} {}", event_to_json(event)));
        }
    }
    let (ix, lo, hi) = facts.slider.unwrap_or((0, 0, 0));
    say(&format!(
        "READY {} {} {} {} {} {} {}",
        server.local_addr(),
        hosted.gen_s,
        facts.cost,
        facts.slider.is_some(),
        ix,
        lo,
        hi
    ));
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let mut parts = line.splitn(4, ' ');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("CHECK"), Some(mode), Some(name), Some(body)) => {
                match check(&hosted, mode, name, body) {
                    Ok(()) => say("OK"),
                    Err(e) => say(&format!("BAD {e}")),
                }
            }
            (Some("QUIT"), ..) => break,
            _ => say(&format!("BAD unknown command {line:?}")),
        }
    }
    server.shutdown();
    Ok(())
}

/// Recompute every view of a returned patch on the workload's current
/// snapshot — through the row interpreter (`scalar`) or a from-scratch
/// vectorized execution (`fresh`) — and require the re-encoded patch to
/// match the returned bytes.
fn check(hosted: &Hosted, mode: &str, name: &str, body: &str) -> Result<(), String> {
    let generation = hosted
        .generations
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, g)| g)
        .ok_or_else(|| format!("no workload {name}"))?;
    let snapshot = generation.live.snapshot();
    let ctx = ExecContext::new(&snapshot);
    let patch = patch_from_json(body).map_err(|e| format!("undecodable patch: {e}"))?;
    if patch.views.is_empty() {
        return Err("patch carries no view to check".into());
    }
    let mut expected = Patch {
        seq: patch.seq,
        views: Vec::new(),
    };
    for view in &patch.views {
        let query = pi2_sql::parse_query(&view.sql).map_err(|e| format!("{}: {e}", view.sql))?;
        let table = match mode {
            "scalar" => execute_scalar(&query, &ctx),
            "fresh" => execute(&query, &ctx),
            other => return Err(format!("unknown check mode {other}")),
        }
        .map_err(|e| format!("{}: {e}", view.sql))?;
        expected.views.push(PatchView {
            view: view.view,
            tree: view.tree,
            sql: view.sql.clone(),
            table: Arc::new(table),
        });
    }
    if patch_to_json(&expected) == body {
        Ok(())
    } else {
        Err(format!("patch differs from the {mode} oracle"))
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Which layer boundary a trace pass times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `Pi2Service::handle_json` on each request body.
    Json,
    /// `Session::dispatch` and `Pi2Service::append` on each decoded
    /// request, plus the engine, data and eviction calls beneath them.
    Dispatch,
}

/// Replay the wire run's warm-up and nominal phases in-process, timing
/// one layer boundary per request. Prints one line per timed call:
/// `R <index> <r|a> <µs> <engine µs>` per nominal request, `X <µs>` per
/// view the engine executed, `A <append_rows µs> <LiveCatalog µs> <sweep
/// µs> <Pi2Service::append µs>` per append, and `G …` for the set-up's
/// generation stages.
pub fn trace_pass(workload: Serving, pass: Pass, seed: u64, seconds: f64) -> Result<(), String> {
    let hosted = setup::host(workload, pass == Pass::Dispatch);
    let facts = setup::facts(&hosted, workload);
    let service = &hosted.service;
    // Open sessions through the wire entry point, as the wire run does.
    let names: Vec<String> = match workload {
        Serving::Interact => facts.cycles.iter().map(|(n, _)| n.clone()).collect(),
        _ => vec![setup::BIG.to_string()],
    };
    let mut sessions = Vec::new();
    for name in &names {
        let opened = service.handle_json(&pi2::request_to_json(&Request::Open {
            workload: name.clone(),
        }));
        let id = pi2::Json::parse(&opened)
            .ok()
            .and_then(|j| j.get("session").and_then(pi2::Json::as_i64))
            .ok_or_else(|| format!("open failed: {opened}"))?;
        sessions.push(id as u64);
    }
    let spec = plan::spec(workload, &facts);
    let mut source = plan::source(workload, seed, &facts, &sessions);
    let phases = plan::phases(&spec, source.as_mut(), seconds, false)?;
    for req in phases.warmup.iter().chain(&phases.preroll) {
        call(&hosted, pass, req.kind, &req.body, false)?;
    }
    let [plan::Step::Nominal(nominal)] = phases.steps.as_slice() else {
        unreachable!("a traced run has one nominal step");
    };
    let start = Instant::now() + Duration::from_millis(5);
    for (index, req) in nominal.iter().enumerate() {
        wait_until(start + Duration::from_micros(req.due_us));
        let (total_us, engine_us) = call(&hosted, pass, req.kind, &req.body, true)?;
        let k = if req.kind == Kind::Read { "r" } else { "a" };
        say(&format!("R {index} {k} {total_us} {engine_us}"));
    }
    let t = &hosted.trace;
    let (iterations, states): (usize, usize) = hosted
        .generations
        .iter()
        .map(|(_, g)| (g.mcts_stats.iterations, g.mcts_stats.states_evaluated))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    say(&format!(
        "G {} {} {} {} {iterations} {states}",
        t.parse_ms, t.workload_ms, t.mcts_ms, t.map_ms
    ));
    say("DONE");
    Ok(())
}

/// One request through the pass's layer boundary: `(µs at the boundary,
/// µs of engine execution inside it)`. With `report` off (warm-up) the
/// inner layers are not timed.
fn call(
    hosted: &Hosted,
    pass: Pass,
    kind: Kind,
    body: &str,
    report: bool,
) -> Result<(f64, f64), String> {
    let service = &hosted.service;
    if pass == Pass::Json {
        let t = Instant::now();
        let reply = service.handle_json(body);
        let total = us(t.elapsed());
        if !reply_ok(kind, 200, &reply) {
            return Err(format!("handle_json failed: {reply}"));
        }
        return Ok((total, 0.0));
    }
    let request = pi2::request_from_json(body).map_err(|e| e.to_string())?;
    match request {
        Request::Event { session, event } => {
            let slot = service
                .wire_session(session)
                .ok_or_else(|| format!("no session {session}"))?;
            let cache = global_eval_cache();
            let misses = cache.result_stats().misses;
            let mut guard = slot.lock();
            let t = Instant::now();
            let patch = guard.dispatch(&event).map_err(|e| e.to_string())?;
            let total = us(t.elapsed());
            let missed = cache.result_stats().misses > misses;
            let snapshot = guard.generation().live.snapshot();
            drop(guard);
            let mut engine = 0.0;
            // The engine's share: the same SQL executed directly (no memo)
            // on the same snapshot. Only a memo miss ran the engine inside
            // dispatch, and only then is re-executing free of side effects
            // (a first execution materializes lazily flattened columns
            // that a later append would otherwise pay for).
            if report && missed {
                let ctx = ExecContext::new(&snapshot);
                for view in &patch.views {
                    let query = pi2_sql::parse_query(&view.sql).map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    std::hint::black_box(execute(&query, &ctx).map_err(|e| e.to_string())?);
                    let exec = us(t.elapsed());
                    say(&format!("X {exec}"));
                    engine += exec;
                }
            }
            Ok((total, engine))
        }
        Request::Append {
            workload,
            table,
            rows,
        } => {
            let generation = service
                .generation(&workload)
                .ok_or_else(|| format!("no workload {workload}"))?;
            // Copies of the pre-append catalogue, taken untimed, so each
            // part can be timed cold after the real append without
            // touching the state the real append sees.
            let snapshot = generation.live.snapshot();
            let (for_rows, for_live) = ((*snapshot).clone(), (*snapshot).clone());
            let delta = rows.clone();
            let t = Instant::now();
            service
                .append(&workload, &table, rows)
                .map_err(|e| e.to_string())?;
            let total = us(t.elapsed());
            if report {
                let t = Instant::now();
                std::hint::black_box(
                    for_rows
                        .append_rows(&table, delta.clone())
                        .map_err(|e| e.to_string())?,
                );
                let append_rows = us(t.elapsed());
                let scratch = pi2::LiveCatalog::new(for_live);
                let t = Instant::now();
                std::hint::black_box(scratch.append(&table, delta).map_err(|e| e.to_string())?);
                let live = us(t.elapsed());
                let t = Instant::now();
                global_eval_cache().evict_catalog(UNUSED_FINGERPRINT);
                let sweep = us(t.elapsed());
                say(&format!("A {append_rows} {live} {sweep} {total}"));
            }
            Ok((total, 0.0))
        }
        other => Err(format!("unexpected request in stream: {other:?}")),
    }
}

/// A catalogue fingerprint no memo entry is keyed to, so a timed sweep
/// scans every entry and drops none.
const UNUSED_FINGERPRINT: u64 = 0x5EED_0FF1_A6E1;
