//! The `generate` workload: cold interface generation, one fresh child
//! process per log. The MCTS tables, difftree memos and eval cache are
//! process-global, so only a new process generates cold.

use crate::host::vm_hwm_kb;
use crate::setup::{gen_config, traced_generate, GenTrace};
use crate::stream::shuffle;
use pi2::Pi2;
use pi2_workloads::big::SplitMix64;
use pi2_workloads::logs::duplicated;
use pi2_workloads::{all_logs, LogKind, QueryLog};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Queries in the scaled Filter log (§7.3 duplicates it).
pub const SCALE_QUERIES: usize = 225;

/// The eight logs of a round: the seven paper logs, then the scaled
/// Filter log.
pub fn round_logs() -> Vec<QueryLog> {
    let mut logs = all_logs();
    logs.push(duplicated(LogKind::Filter, SCALE_QUERIES));
    logs
}

/// Index of the scaled log in [`round_logs`].
pub const SCALE_LOG: usize = 7;

/// What one child reports about its generation.
#[derive(Debug, Clone)]
pub struct GenResult {
    /// Index into [`round_logs`].
    pub log: usize,
    /// Spawn to catalogue loaded (s), measured by the parent.
    pub setup_s: f64,
    /// Wall time of the cold generation (s).
    pub gen_s: f64,
    /// §5 cost of the interface.
    pub cost: f64,
    /// MCTS iterations.
    pub iterations: usize,
    /// Reward estimates computed.
    pub states: usize,
    /// The interface covers every choice node and has a finite cost.
    pub valid: bool,
    /// Peak resident set of the child (kB).
    pub rss_kb: u64,
    /// Stage times, when traced.
    pub trace: GenTrace,
}

/// Child side: load the catalogue, announce it, generate one log cold and
/// print a `RESULT` line.
pub fn child(log_ix: usize, traced: bool) -> Result<(), String> {
    let catalog = pi2_workloads::catalog();
    say("LOADED");
    let logs = round_logs();
    let log = logs.get(log_ix).ok_or("no such log")?;
    let config = gen_config();
    let t = Instant::now();
    let (generation, trace) = if traced {
        traced_generate(catalog, &log.queries, &config)
    } else {
        let refs: Vec<&str> = log.queries.iter().map(String::as_str).collect();
        let g = Pi2::new(catalog)
            .generate_with(&refs, &config)
            .map_err(|e| format!("{}: {e}", log.name))?;
        (g, GenTrace::default())
    };
    let gen_s = t.elapsed().as_secs_f64();
    let covered: usize = generation
        .interface
        .interactions
        .iter()
        .map(|i| i.cover.len())
        .sum();
    let valid = covered == generation.forest.choice_count() && generation.cost.is_finite();
    say(&format!(
        "RESULT {gen_s} {} {} {} {valid} {} {} {} {} {}",
        generation.cost,
        generation.mcts_stats.iterations,
        generation.mcts_stats.states_evaluated,
        vm_hwm_kb("self").unwrap_or(0),
        trace.parse_ms,
        trace.workload_ms,
        trace.mcts_ms,
        trace.map_ms,
    ));
    Ok(())
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Parent side: spawn one child of the benchmark executable `exe` for
/// `log_ix` and collect its report.
pub fn spawn(exe: &Path, log_ix: usize, traced: bool) -> Result<GenResult, String> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "gen-child",
            &log_ix.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn generation child: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let result = (|| {
        let loaded = lines.next().and_then(Result::ok);
        if loaded.as_deref() != Some("LOADED") {
            return Err(format!("child said {loaded:?} before loading"));
        }
        let setup_s = start.elapsed().as_secs_f64();
        let line = lines
            .next()
            .and_then(Result::ok)
            .ok_or("child exited without a result")?;
        parse_result(log_ix, setup_s, &line)
    })();
    let status = child.wait().map_err(|e| e.to_string())?;
    match result {
        Ok(r) if status.success() => Ok(r),
        Ok(_) => Err(format!("generation child exited with {status}")),
        Err(e) => Err(e),
    }
}

fn parse_result(log: usize, setup_s: f64, line: &str) -> Result<GenResult, String> {
    let f: Vec<&str> = line.split(' ').collect();
    let bad = || format!("malformed child result {line:?}");
    if f.len() != 11 || f[0] != "RESULT" {
        return Err(bad());
    }
    let num = |i: usize| f[i].parse::<f64>().map_err(|_| bad());
    let int = |i: usize| f[i].parse::<u64>().map_err(|_| bad());
    Ok(GenResult {
        log,
        setup_s,
        gen_s: num(1)?,
        cost: num(2)?,
        iterations: int(3)? as usize,
        states: int(4)? as usize,
        valid: f[5] == "true",
        rss_kb: int(6)?,
        trace: GenTrace {
            parse_ms: num(7)?,
            workload_ms: num(8)?,
            mcts_ms: num(9)?,
            map_ms: num(10)?,
        },
    })
}

/// Rounds of the eight logs, each round in a seeded order, until
/// `seconds` have passed (at least one round). Failed children are
/// returned as errors beside the results.
pub fn rounds(seed: u64, seconds: f64, traced: bool) -> (Vec<Vec<GenResult>>, Vec<String>) {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            return (
                Vec::new(),
                vec![format!("cannot locate the benchmark: {e}")],
            )
        }
    };
    let mut rng = SplitMix64::new(seed ^ 0x6E4E);
    let start = Instant::now();
    let mut out = Vec::new();
    let mut errors = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..round_logs().len()).collect();
        shuffle(&mut rng, &mut order);
        let mut round = Vec::new();
        for ix in order {
            match spawn(&exe, ix, traced) {
                Ok(r) => round.push(r),
                Err(e) => errors.push(e),
            }
        }
        round.sort_by_key(|r| r.log);
        out.push(round);
    }
    (out, errors)
}
