//! The rc11 end-to-end benchmark.
//!
//! ```text
//! rc11-bench --workload <corpus_cold|deep_ticket>
//!            --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around every layer call and prints the
//! per-layer metrics instead. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it is the full results record (host block, metrics, detail),
//! which is also appended to `rc11-bench/results/results.jsonl`. A wrong
//! answer from the program under test makes the exit code 3.

mod corpus;
mod deep;
mod gate;
mod layers;
mod mixed;
mod report;
mod spans;
mod stats;

use report::{host_block, log_record, record, result_line, results_dir, Outcome};
use spans::Tracer;
use std::process::ExitCode;
use std::time::Instant;

/// What every workload needs to know about the run.
#[derive(Clone, Copy)]
pub struct Ctx {
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// When the process started (the start of `setup_s`).
    pub start: Instant,
    /// `available_parallelism`: the parallel worker count.
    pub par: usize,
    /// Corrupt one known answer, to prove the gate fails the run.
    pub inject_wrong: bool,
}

/// Peak resident set size of this process (`VmHWM`), bytes; 0 where the
/// kernel does not report it.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Run this binary again with `args` and the extra environment `envs`,
/// wait for it, and parse the last line it printed.
pub fn run_child(
    args: &[&str],
    envs: &[(&str, &str)],
) -> Result<rc11::check::wire::Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .envs(envs.iter().copied())
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    rc11::check::wire::parse_json(line).map_err(|e| format!("child output: {e}"))
}

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["corpus_cold", "deep_ticket"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_wrong: bool,
    /// Child mode (`deep` or `corpus`), used by the workloads themselves.
    child: Option<String>,
    workers: usize,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_wrong: false,
        child: None,
        workers: 1,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--inject-wrong" => a.inject_wrong = true,
            "--child" => {
                let kind = value()?;
                if kind != "deep" && kind != "corpus" {
                    return Err(format!("unknown child kind {kind:?}"));
                }
                a.child = Some(kind);
            }
            "--workers" => a.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.child.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rc11-bench: {e}");
            eprintln!("usage: rc11-bench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        start,
        par: std::thread::available_parallelism().map_or(1, |n| n.get()),
        inject_wrong: args.inject_wrong,
    };
    match args.child.as_deref() {
        Some("deep") => {
            println!("{}", deep::child(args.workers.max(1)).to_string_line());
            return ExitCode::SUCCESS;
        }
        Some(_) => {
            return match corpus::child(&ctx) {
                Ok(j) => {
                    println!("{}", j.to_string_line());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("rc11-bench: {e}");
                    ExitCode::from(1)
                }
            };
        }
        None => {}
    }
    let mut tr = Tracer::new(start);
    let result: Result<Outcome, String> = match (args.workload.as_str(), args.trace) {
        ("corpus_cold", false) => corpus::run(&ctx),
        ("corpus_cold", true) => corpus::run_traced(&ctx, &mut tr),
        (_, false) => deep::run(&ctx),
        (_, true) => deep::run_traced(&ctx, &mut tr),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rc11-bench: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = results_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("rc11-bench: writing {}: {e}", path.display());
        }
    }
    let rec = record(host_block(&args.workload, args.seed, args.trace), &outcome);
    match log_record(&results_dir().join("results.jsonl"), &rec) {
        Ok(differs) if !differs.is_empty() => eprintln!(
            "rc11-bench: host block differs from the previous {} record in {differs:?}; \
             do not compare these results",
            args.workload
        ),
        Ok(_) => {}
        Err(e) => eprintln!("rc11-bench: results log: {e}"),
    }
    println!("{}", rec.to_string_line());
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        for w in &outcome.wrong {
            eprintln!("rc11-bench: WRONG ANSWER: {w}");
        }
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn run_arguments_parse_and_bad_ones_are_refused() {
        let a = args("--workload deep_ticket --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("deep_ticket", 9, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload daemon_mixed --seed 1").is_err());
        assert!(args("--workload corpus_cold --trace 2").is_err());
        assert!(args("--workload corpus_cold --seconds 0").is_err());
        assert!(args("--workload corpus_cold --seed").is_err());
    }
}
