//! `pi2-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, the last line being one JSON
//! object. The other argument forms are the child processes the
//! benchmark spawns itself: `host` (the HTTP server a serving workload
//! talks to), `pass` (an in-process trace pass) and `gen-child` (one cold
//! generation).

use pi2_benchmark::generate;
use pi2_benchmark::host::{self, Pass};
use pi2_benchmark::report::{self, Outcome};
use pi2_benchmark::setup::Serving;
use std::process::ExitCode;

const USAGE: &str = "usage: pi2-benchmark --workload generate|interact|explore_big|live \
                     --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match argv.as_slice() {
        ["host", w] => serving_kind(w).and_then(host::serve),
        ["pass", w, pass, seed, seconds] => serving_kind(w).and_then(|w| {
            let pass = match *pass {
                "json" => Pass::Json,
                "dispatch" => Pass::Dispatch,
                other => return Err(format!("unknown pass {other}")),
            };
            host::trace_pass(w, pass, parse(seed)?, parse(seconds)?)
        }),
        ["gen-child", ix, traced] => parse(ix).and_then(|ix| generate::child(ix, *traced == "1")),
        _ => return bench(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pi2-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad number {v:?}"))
}

fn serving_kind(name: &str) -> Result<Serving, String> {
    Serving::from_name(name).ok_or_else(|| format!("unknown workload {name}"))
}

fn bench(argv: &[&str]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().copied();
        match (*flag, value) {
            ("--workload", Some(v)) => workload = Some(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => trace = matches!(v, "0" | "1").then(|| v == "1"),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome: Result<Outcome, String> = match workload {
        "generate" => Ok(report::generate(seed, seconds, trace)),
        other => match Serving::from_name(other) {
            Some(w) if trace => report::serving_traced(w, seed, seconds),
            Some(w) => report::serving(w, seed, seconds),
            None => Err(format!("unknown workload {other}\n{USAGE}")),
        },
    };
    match outcome {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            for (name, value, unit) in &outcome.metrics {
                println!("{name} = {value} {unit}");
            }
            println!("{}", outcome.json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pi2-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
