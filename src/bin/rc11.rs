//! The `rc11` command-line driver.
//!
//! * `rc11 run <path>…` — batch-run `.litmus` files (or directories of
//!   them), with a summary table and a
//!   nonzero exit on any parse error or verdict mismatch;
//! * `rc11 lint <path>…` — static diagnostics over `.litmus` files:
//!   every file's findings are reported before the exit code is decided,
//!   so a batch never hides errors behind the first one;
//! * `rc11 fuzz` — drive the generative differential harness from a seed;
//! * `rc11 serve` — run rc11d, the cache-fronted checking daemon
//!   (JSON lines over TCP into the same request path `run` uses);
//! * `rc11 submit` — send `.litmus` files to a running daemon.
//!
//! ```text
//! rc11 run corpus/ --cross-check
//! rc11 run corpus/mp_rlx.litmus --show-outcomes
//! rc11 lint corpus/ --deny-warnings
//! rc11 fuzz --seed 7 --iters 500
//! rc11 serve --cache /tmp/rc11-cache &   # prints `rc11d: listening on ADDR`
//! rc11 submit corpus/ --addr 127.0.0.1:PORT --stats
//! ```

use rc11::analyze::{lint as analyze_lint, render_diagnostic, Severity};
use rc11::check::gen::GenOptions;
use rc11::check::fuzz::{fuzz, DiffOptions};
use rc11::check::wire::Json;
use rc11::check::{Budget, CheckParams, CheckService, VerdictCache, DEFAULT_MEM_BUDGET};
use rc11::daemon::{self, DaemonConfig};
use rc11::lang::parse::parse_litmus;
use rc11::litmus::{self, Litmus};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("trace-report") => cmd_trace_report(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("rc11: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
rc11 — litmus tests and differential fuzzing for the RC11 RAR semantics

USAGE:
  rc11 run <path>... [OPTIONS]     batch-run .litmus files / directories
  rc11 lint <path>... [OPTIONS]    static diagnostics for .litmus files
  rc11 fuzz [OPTIONS]              generative differential fuzzing
  rc11 serve [OPTIONS]             run rc11d, the checking daemon
  rc11 submit <path>... [OPTIONS]  send .litmus files to a running daemon
  rc11 top <addr> [OPTIONS]        render a daemon's live metrics
  rc11 trace-report <file.jsonl>   validate + aggregate a --trace file

RUN OPTIONS:
  --cross-check              re-decide every file with the reference
                             explorer (a small unreduced breadth-first
                             search): outcome sets and deadlock counts
                             must match it exactly and the reduced runs
                             may never visit more states. The summary
                             gains a REDUCTION column (reference states /
                             reduced states)
  --max-states <N>           per-test state cap (default: 5000000)
  --deadline <SECS>          wall-clock budget per engine run; a run that
                             hits it stops with a sound lower bound and
                             the file is reported as stopped early
                             (`deadline`), the batch continues
  --max-transitions <N>      transition budget per engine run (same
                             stopped-early contract)
  --mem-budget <BYTES>       approximate interned-state memory budget per
                             engine run (same stopped-early contract;
                             default 1073741824, i.e. 1 GiB, so a state
                             space that explodes stops as `mem-budget`
                             instead of exhausting the machine)
  --checkpoint <DIR>         periodically checkpoint the exploration into
                             DIR; an interrupted run resumes from DIR and
                             finishes with a report identical to an
                             uninterrupted one; a `Complete` run removes
                             the checkpoint
  --cache <DIR>              reuse complete verdicts across invocations from
                             a canonical-fingerprint cache spilled to DIR
                             (off by default: without it every engine run
                             explores). Only `complete` runs are admitted;
                             renamed-but-identical files hit without
                             exploring
  --show-outcomes            print each test's observed outcome set
  --progress[=SECS]          print a live heartbeat to stderr every SECS
                             seconds (default 5): files done, cumulative
                             states and states/s, frontier depth, prune /
                             dedup counters, ETA. Purely observational —
                             reports are bit-identical with it on or off
  --trace <FILE.jsonl>       stream timestamped events (run-start,
                             heartbeats, one `file` row per engine run
                             with its telemetry snapshot, notes, stop) as
                             JSON lines to FILE; `rc11 trace-report FILE`
                             validates and aggregates it
  -q, --quiet                only print failures and the final summary

  Every check runs on one exploration walk, which deduplicates visited
  states one way: fingerprints of their canonical encodings, each hit
  confirmed against the interned state's words. There is no dedup switch, and no reduction
  switch: every check is an outcome query, so the walk always runs its
  full reduction (sleep sets,
  persistent sets, thread symmetry), which keeps outcome sets and
  deadlock counts exact. STATES counts the states the reduced run visited.

  Each file's run is contained: a panic inside the engine is caught,
  reported as a FAIL row, and the batch continues. The summary NOTES
  column surfaces engine degradations (por-cap, sym-cap),
  contained faults (fault), and checkpoint errors (ckpt); details
  print under each affected row.

LINT OPTIONS:
  --deny-warnings            exit nonzero on warnings, not just errors.
                             All findings across all files are reported
                             before the exit code is decided

FUZZ OPTIONS:
  Every generated program is decided by the reference explorer (a small
  breadth-first search over materialised canonical states) and by the
  exploration walk, unreduced (counts must match exactly)
  and fully reduced (terminal, deadlock and outcome sets must match while
  states and transitions never exceed the reference's); a third of the
  programs clone one thread body into every slot so symmetry has orbits
  to fold. Any disagreement is shrunk to a .litmus repro.
  --seed <S>                 base seed (default: 1)
  --iters <N>                programs to generate (default: 200)
  --threads <MIN,MAX>        thread-count range (default: 2,4)
  --stmts <N>                max top-level statements per thread (default: 4)
  --max-states <N>           oracle state cap; larger programs are skipped
                             (default: 262144)
  --samples <N>              random walks per program for sampler-soundness
                             (default: 24)
  --chaos                    add the chaos differential lane: every
                             program re-runs under seeded fault schedules
                             (expansion panic / checkpoint-write failure)
                             and must report either results as
                             good as an unfaulted run or an explicitly
                             non-complete stop reason — never a silently
                             wrong answer

SERVE OPTIONS:
  --addr <HOST:PORT>         bind address (default: 127.0.0.1:0; the bound
                             address is printed as `rc11d: listening on ADDR`)
  --pool <N>                 worker threads draining the job queue
                             (default: 2)
  --queue <N>                bounded job-queue depth; checks arriving with
                             the queue full are rejected with a busy error
                             (default: 64)
  --cache <DIR>              spill cached verdicts to DIR (checksummed,
                             survives restart; default: memory only)
  --cache-cap <N>            in-memory verdict-cache entries (default: 1024)
  --metrics                  collect extended per-job metrics and report
                             them in `stats`: latency percentiles split
                             probe/explore, queue-wait, per-worker
                             utilization, cache efficiency by fingerprint
                             class. In-memory only: a restart resets them

  The daemon answers one JSON object per line over TCP (protocol in
  DESIGN.md §8): check / stats / ping / shutdown. Every check goes
  through the same request path as `rc11 run` — parse, canonicalise,
  fingerprint, cache-probe, explore — so syntactically different but
  canonically identical submissions are served from the cache. A check
  that sets no `max_mem_bytes` runs under the same 1 GiB default memory
  budget as `rc11 run`. Shutdown cancels in-flight work and drains the
  queue with explicit `cancelled` responses; disk-spilled verdicts
  survive a kill at any point.

SUBMIT OPTIONS:
  --addr <HOST:PORT>         daemon address (required)
  --no-cache                 bypass the daemon's verdict cache
  --expect-all-hits          exit nonzero unless every response was served
                             from the cache (the CI warm-pass assertion)
  --stats                    print the daemon's stats after submitting
  --ping                     just ping the daemon and exit
  --shutdown                 ask the daemon to stop after submitting

TOP OPTIONS:
  --interval <SECS>          refresh period (default: 2)
  --once                     render one snapshot and exit (scriptable)

  `rc11 top ADDR` polls a daemon's `stats` and renders the counters —
  and, when the daemon runs with --metrics, the latency percentiles,
  queue-wait, per-worker utilization and fingerprint-class cache
  efficiency — as a live text dashboard.

TRACE-REPORT:
  `rc11 trace-report FILE.jsonl` strictly validates a `rc11 run --trace`
  file (every line parses, required keys present, timestamps monotone)
  and prints per-phase and per-reduction attribution. Exit 1 on any
  schema violation.

Exit status: 0 on full agreement, 1 on any mismatch/parse error, 2 on usage
errors.
";

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("rc11: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Parse `--key value` style options out of `args`, returning positional
/// arguments. Boolean flags are looked up directly by the callers.
struct Opts {
    args: Vec<String>,
}

impl Opts {
    fn value_of(&mut self, key: &str) -> Result<Option<String>, String> {
        if let Some(i) = self.args.iter().position(|a| a == key) {
            if i + 1 >= self.args.len() {
                return Err(format!("{key} needs a value"));
            }
            let v = self.args.remove(i + 1);
            self.args.remove(i);
            return Ok(Some(v));
        }
        Ok(None)
    }

    fn flag(&mut self, keys: &[&str]) -> bool {
        let before = self.args.len();
        self.args.retain(|a| !keys.contains(&a.as_str()));
        self.args.len() != before
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        match self.value_of(key)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: invalid value `{v}`")),
        }
    }

    fn usize_list(&mut self, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        match self.value_of(key)? {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| s.trim().parse().map_err(|_| format!("{key}: invalid value `{s}`")))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// rc11 run
// ---------------------------------------------------------------------

/// The per-run budget `rc11 run` takes from `--deadline`,
/// `--max-transitions` and `--mem-budget`; without `--mem-budget` the
/// memory bound is [`DEFAULT_MEM_BUDGET`].
fn run_budget(opts: &mut Opts) -> Result<Budget, String> {
    let deadline = match opts.value_of("--deadline")? {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(secs) if secs > 0.0 => Some(std::time::Duration::from_secs_f64(secs)),
            _ => return Err(format!("--deadline: invalid value `{v}`")),
        },
    };
    let max_transitions = match opts.value_of("--max-transitions")? {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("--max-transitions: invalid value `{v}`"))?),
    };
    let max_mem_bytes = Some(opts.parsed("--mem-budget", DEFAULT_MEM_BUDGET)?);
    Ok(Budget { deadline, max_transitions, max_mem_bytes })
}

fn cmd_run(raw: &[String]) -> ExitCode {
    let mut opts = Opts { args: raw.to_vec() };
    let max_states = match opts.parsed("--max-states", 5_000_000usize) {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    let budget = match run_budget(&mut opts) {
        Ok(b) => b,
        Err(e) => return fail_usage(&e),
    };
    let checkpoint = match opts.value_of("--checkpoint") {
        Ok(v) => v.map(rc11::check::CheckpointOpts::new),
        Err(e) => return fail_usage(&e),
    };
    let cache_dir = match opts.value_of("--cache") {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    let cross_check = opts.flag(&["--cross-check"]);
    let show_outcomes = opts.flag(&["--show-outcomes"]);
    let quiet = opts.flag(&["--quiet", "-q"]);
    // `--progress[=SECS]` is the CLI's one `=`-style option: bare
    // `--progress` must not swallow the following positional path.
    let mut progress: Option<f64> = None;
    if let Some(i) =
        opts.args.iter().position(|a| a == "--progress" || a.starts_with("--progress="))
    {
        let a = opts.args.remove(i);
        progress = Some(match a.strip_prefix("--progress=") {
            None => 5.0,
            Some(v) => match v.parse::<f64>() {
                Ok(secs) if secs > 0.0 => secs,
                _ => return fail_usage(&format!("--progress: invalid interval `{v}`")),
            },
        });
    }
    let trace_path = match opts.value_of("--trace") {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    if let Some(bad) = opts.args.iter().find(|a| a.starts_with('-')) {
        return fail_usage(&format!("unknown option `{bad}`"));
    }
    if opts.args.is_empty() {
        return fail_usage("run: no .litmus files or directories given");
    }
    // One cumulative sink backs the whole batch when --progress or
    // --trace is on: the heartbeat thread reads it live while every
    // engine run attaches only its own delta to its response. It exists
    // before the first file loads, so each load is timed under
    // `Phase::Parse` and credited to that file's first response.
    let telemetry: Option<std::sync::Arc<rc11::telemetry::Telemetry>> =
        (progress.is_some() || trace_path.is_some()).then(rc11::telemetry::Telemetry::shared);
    let mut parse_nanos: std::collections::HashMap<PathBuf, u64> = Default::default();
    let mut load = |p: &std::path::Path| {
        let started = std::time::Instant::now();
        let loaded = litmus::load_file(p);
        let nanos = started.elapsed().as_nanos() as u64;
        if let Some(t) = &telemetry {
            t.add_phase_nanos(rc11::telemetry::Phase::Parse, nanos);
        }
        parse_nanos.insert(p.to_path_buf(), nanos);
        loaded
    };

    // Collect and load the work list (directories via the library's
    // `load_dir_with`, so the CLI and the test suite share one
    // enumeration).
    let mut files: Vec<(PathBuf, Result<Litmus, litmus::LoadError>)> = Vec::new();
    let mut broken = 0usize;
    for arg in &opts.args {
        let p = PathBuf::from(arg);
        if p.is_dir() {
            match litmus::load_dir_with(&p, &mut load) {
                Ok(entries) if entries.is_empty() => {
                    eprintln!("rc11: no .litmus files in {}", p.display());
                    broken += 1;
                }
                Ok(entries) => files.extend(entries),
                Err(e) => {
                    eprintln!("rc11: {}: {e}", p.display());
                    broken += 1;
                }
            }
        } else {
            let loaded = load(&p);
            files.push((p, loaded));
        }
    }

    // Every engine run goes through the shared request path (the same
    // one the daemon serves): parse → canonicalise → fingerprint →
    // cache-probe → explore. Without --cache the service has no cache
    // and every run explores, exactly as before.
    let service = match &cache_dir {
        Some(dir) => match VerdictCache::with_disk(4096, dir) {
            Ok(c) => CheckService::with_cache(c),
            Err(e) => {
                eprintln!("rc11: --cache {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => CheckService::new(),
    };
    let params = CheckParams {
        max_states,
        budget,
        checkpoint: checkpoint.clone(),
        use_cache: cache_dir.is_some(),
        telemetry: telemetry.clone(),
        ..CheckParams::default()
    };
    let trace = match &trace_path {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => {
                let mut w = rc11::check::TraceWriter::new(f);
                let options = rc11::check::obj(vec![
                    ("cross_check", Json::Bool(cross_check)),
                    ("max_states", Json::Int(max_states as i64)),
                ]);
                if let Err(e) = w.run_start(files.len(), 1, options) {
                    eprintln!("rc11: --trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
                Some(std::sync::Arc::new(std::sync::Mutex::new(w)))
            }
            Err(e) => {
                eprintln!("rc11: --trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let files_done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let hb_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let heartbeat = match (progress, &telemetry) {
        (Some(secs), Some(tel)) => {
            let tel = std::sync::Arc::clone(tel);
            let stop = std::sync::Arc::clone(&hb_stop);
            let done = std::sync::Arc::clone(&files_done);
            let trace_hb = trace.clone();
            let total = files.len();
            let interval = std::time::Duration::from_secs_f64(secs);
            Some(std::thread::spawn(move || {
                use rc11::telemetry::Counter;
                use std::sync::atomic::Ordering;
                let start = std::time::Instant::now();
                let mut last_states = 0u64;
                let mut last_tick = std::time::Instant::now();
                loop {
                    // Sleep in small steps so the batch never waits a
                    // full interval for the heartbeat to notice the end.
                    let mut waited = std::time::Duration::ZERO;
                    while waited < interval {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let step = std::time::Duration::from_millis(50).min(interval - waited);
                        std::thread::sleep(step);
                        waited += step;
                    }
                    let snap = tel.snapshot();
                    let states = snap.get(Counter::States);
                    let rate = states.saturating_sub(last_states) as f64
                        / last_tick.elapsed().as_secs_f64().max(1e-9);
                    let d = done.load(Ordering::Relaxed);
                    let eta = if d > 0 && d < total {
                        let per_file = start.elapsed().as_secs_f64() / d as f64;
                        format!(", eta {:.0}s", per_file * (total - d) as f64)
                    } else {
                        String::new()
                    };
                    let prunes =
                        snap.get(Counter::SleepSetPrunes) + snap.get(Counter::PersistentSheds);
                    eprintln!(
                        "progress: {d}/{total} files, {states} states ({rate:.0}/s), \
                         frontier {} (peak {}), dup {}, prunes {prunes}, folds {}{eta}",
                        snap.frontier_depth,
                        snap.frontier_peak,
                        snap.get(Counter::DupHits),
                        snap.get(Counter::SymmetryFolds),
                    );
                    if let Some(tr) = &trace_hb {
                        if let Ok(mut w) = tr.lock() {
                            let _ = w.heartbeat(&snap, rate, d, total);
                        }
                    }
                    last_states = states;
                    last_tick = std::time::Instant::now();
                }
            }))
        }
        _ => None,
    };

    let mut passed = 0usize;
    let mut failed = 0usize;
    let mut reference_states_total = 0usize;
    let mut reduced_states_total = 0usize;
    if !quiet {
        let mut header = format!(
            "{:<16} {:>8} {:>10} {:>10} {:>10}",
            "NAME", "STATES", "RATE", "OBSERVED", "EXPECTED"
        );
        if cross_check {
            header.push_str(&format!(" {:>10}", "REDUCTION"));
        }
        header.push_str(&format!(" {:>10}", "NOTES"));
        println!("{header}  RESULT");
    }
    // `LoadError`'s Display already includes the path, so only the loaded
    // result is consumed here. Every file runs inside `catch_unwind`: a
    // panicking engine is reported as that file's failure and the batch
    // finishes — one poisoned input never hides the rest of the corpus.
    for (path, loaded) in &files {
        let litmus = match loaded {
            Ok(l) => l,
            Err(e) => {
                eprintln!("rc11: {e}");
                broken += 1;
                continue;
            }
        };
        let run = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one(
                litmus,
                &service,
                &params,
                cross_check,
                max_states,
                parse_nanos.get(path).copied().unwrap_or(0),
                trace.as_deref(),
            )
        })) {
            Ok(run) => run,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                failed += 1;
                files_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if let Some(tr) = &trace {
                    if let Ok(mut w) = tr.lock() {
                        let _ = w.note(&format!("{}: panic contained: {msg}", litmus.name));
                    }
                }
                println!(
                    "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}  FAIL  panic contained: {msg}",
                    litmus.name, "-", "-", "-", "-", "-"
                );
                continue;
            }
        };
        files_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(reference_states) = run.reference_states {
            reference_states_total += reference_states;
            reduced_states_total += run.states;
        }
        let notes_cell = if run.notes.is_empty() {
            "-".to_string()
        } else {
            let codes: Vec<&str> = run.notes.iter().map(note_code).collect();
            codes.join(",")
        };
        // One separator space plus a 10-wide cell, matching the header's
        // ` {:>10}` REDUCTION column.
        let red_cell = run
            .reference_states
            .map(|r| format!(" {:>10}", format!("{:.2}x", r as f64 / run.states.max(1) as f64)))
            .unwrap_or_default();
        let red = format!("{red_cell} {notes_cell:>10}");
        // The row's throughput comes from the engine-reported wall
        // clock (`EngineReport::wall`), not a CLI-side stopwatch.
        let rate_cell = {
            let secs = run.wall.as_secs_f64();
            if secs > 0.0 && run.states > 0 {
                format!("{:.0}/s", run.states as f64 / secs)
            } else {
                "-".to_string()
            }
        };
        if run.ok {
            passed += 1;
            if !quiet {
                println!(
                    "{:<16} {:>8} {rate_cell:>10} {:>10} {:>10}{red}  pass",
                    litmus.name,
                    run.states,
                    run.observed.len(),
                    litmus.expected.len()
                );
            }
        } else {
            failed += 1;
            println!(
                "{:<16} {:>8} {rate_cell:>10} {:>10} {:>10}{red}  FAIL  {}",
                litmus.name,
                run.states,
                run.observed.len(),
                litmus.expected.len(),
                run.first_divergence.unwrap_or_default()
            );
        }
        if !quiet {
            for n in &run.notes {
                println!("    note: {n}");
            }
        }
        if show_outcomes {
            for tuple in &run.observed {
                let vals: Vec<String> = tuple.iter().map(rc11::lang::parse::val_literal).collect();
                println!("    ({})", vals.join(", "));
            }
        }
    }

    hb_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = heartbeat {
        let _ = h.join();
    }
    if let Some(tr) = &trace {
        if let Ok(mut w) = tr.lock() {
            let _ = w.stop(files.len(), passed, failed);
        }
    }

    print!(
        "\n{} file(s): {passed} passed, {failed} failed, {broken} unreadable",
        files.len()
    );
    if reduced_states_total > 0 {
        print!(
            "; reduction {:.2}x ({} states vs {} reference)",
            reference_states_total as f64 / reduced_states_total as f64,
            reduced_states_total,
            reference_states_total
        );
    }
    if cache_dir.is_some() {
        let s = service.stats();
        print!(
            "; cache: {} hit(s) ({} mem, {} disk), {} miss(es), {:.0}% hit rate",
            s.cache.hits(),
            s.cache.mem_hits,
            s.cache.disk_hits,
            s.cache.misses,
            s.cache.hit_rate() * 100.0
        );
    }
    println!();
    if failed == 0 && broken == 0 && passed > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything `cmd_run` needs to print and total one file's runs. Produced
/// inside the per-file `catch_unwind` harness so a panicking engine loses
/// only this file's row, never the batch.
struct FileRun {
    ok: bool,
    states: usize,
    /// Engine-reported wall clock of the request-path run; drives the
    /// RATE column.
    wall: std::time::Duration,
    observed: std::collections::BTreeSet<Vec<rc11::core::Val>>,
    notes: Vec<rc11::check::Note>,
    first_divergence: Option<String>,
    /// The reference explorer's state count, under `--cross-check`.
    reference_states: Option<usize>,
}

/// Compact code for the summary's NOTES column; the full [`Note`] prints
/// under the row.
fn note_code(n: &rc11::check::Note) -> &'static str {
    match n {
        rc11::check::Note::PorThreadCap { .. } => "por-cap",
        rc11::check::Note::SymmetryOrbitCap { .. } => "sym-cap",
        rc11::check::Note::WorkerFault { .. } => "fault",
        rc11::check::Note::CheckpointError { .. } => "ckpt",
    }
}

/// Run one litmus file through the shared [`CheckService`] request path
/// plus, under `--cross-check`, the reference explorer, collecting the
/// verdict, notes and totals.
fn run_one(
    litmus: &Litmus,
    service: &CheckService,
    params: &CheckParams,
    cross_check: bool,
    max_states: usize,
    parse_nanos: u64,
    trace: Option<&std::sync::Mutex<rc11::check::TraceWriter<std::fs::File>>>,
) -> FileRun {
    let mut res =
        service.check_parts(&litmus.name, &litmus.prog, &litmus.observe, &litmus.expected, params);
    // The file was parsed once, before its run.
    res.attribute_parse(parse_nanos);
    let states = res.states;
    if let Some(tr) = trace {
        if let Ok(mut w) = tr.lock() {
            let _ = w.file_verdict(&res);
        }
    }
    let mut ok = res.pass;
    let mut first_divergence = (!res.pass).then(|| {
        if res.stop == rc11::check::StopReason::WorkerFault {
            // The request path contained an engine panic; its message is
            // in the WorkerFault note.
            let msg = res
                .notes
                .iter()
                .find_map(|n| match n {
                    rc11::check::Note::WorkerFault { message } => Some(message.clone()),
                    _ => None,
                })
                .unwrap_or_default();
            format!("panic contained: {msg}")
        } else if res.stop == rc11::check::StopReason::StateCap {
            format!("truncated at --max-states {max_states}")
        } else if !res.stop.is_complete() {
            format!(
                "stopped early ({}); {states} states explored is a sound lower bound",
                res.stop
            )
        } else if res.deadlocks > 0 {
            format!("{} deadlocked configuration(s)", res.deadlocks)
        } else {
            let missing: Vec<_> = res.expected.difference(&res.observed).collect();
            let extra: Vec<_> = res.observed.difference(&res.expected).collect();
            format!("missing {missing:?}, unexpected {extra:?}")
        }
    });
    // With --cross-check, re-decide the test with the reference explorer:
    // the outcome set and deadlock count must match it exactly, and no
    // reduced run may visit more states.
    let mut reference_states = None;
    if cross_check {
        let prog = rc11::lang::compile(&litmus.prog);
        let oracle =
            rc11::check::reference::explore(&prog, litmus::objects_for(litmus), max_states, |_, _| {});
        let oracle_observed: std::collections::BTreeSet<Vec<rc11::core::Val>> = oracle
            .terminated
            .iter()
            .map(|c| litmus.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
            .collect();
        let divergence = if !oracle.stop.is_complete() {
            Some(format!("cross-check: reference truncated at --max-states {max_states}"))
        } else if oracle_observed != res.observed {
            Some("cross-check: observed set differs from the reference's".to_string())
        } else if res.deadlocks != oracle.deadlocked.len() {
            Some(format!(
                "cross-check: {} deadlock(s) vs the reference's {}",
                res.deadlocks,
                oracle.deadlocked.len()
            ))
        } else if states > oracle.states {
            Some(format!(
                "cross-check: {states} reduced states exceed the reference's {}",
                oracle.states
            ))
        } else {
            None
        };
        if let Some(d) = divergence {
            ok = false;
            first_divergence.get_or_insert(d);
        }
        reference_states = Some(oracle.states);
    }
    FileRun {
        ok,
        states,
        wall: res.wall,
        observed: res.observed,
        notes: res.notes,
        first_divergence,
        reference_states,
    }
}

// ---------------------------------------------------------------------
// rc11 lint
// ---------------------------------------------------------------------

fn cmd_lint(raw: &[String]) -> ExitCode {
    let mut opts = Opts { args: raw.to_vec() };
    let deny_warnings = opts.flag(&["--deny-warnings"]);
    if let Some(bad) = opts.args.iter().find(|a| a.starts_with('-')) {
        return fail_usage(&format!("unknown option `{bad}`"));
    }
    if opts.args.is_empty() {
        return fail_usage("lint: no .litmus files or directories given");
    }

    // Enumerate the work list up front; every file is then linted
    // independently so one unreadable or unparsable file never hides the
    // findings in the rest of the batch.
    let mut files: Vec<PathBuf> = Vec::new();
    let mut unreadable = 0usize;
    for arg in &opts.args {
        let p = PathBuf::from(arg);
        if p.is_dir() {
            match std::fs::read_dir(&p) {
                Ok(entries) => {
                    let mut found = Vec::new();
                    for entry in entries {
                        match entry {
                            Ok(e) => {
                                let f = e.path();
                                if f.extension().is_some_and(|x| x == "litmus") {
                                    found.push(f);
                                }
                            }
                            Err(e) => {
                                eprintln!("rc11: {}: {e}", p.display());
                                unreadable += 1;
                            }
                        }
                    }
                    if found.is_empty() {
                        eprintln!("rc11: no .litmus files in {}", p.display());
                        unreadable += 1;
                    }
                    found.sort();
                    files.extend(found);
                }
                Err(e) => {
                    eprintln!("rc11: {}: {e}", p.display());
                    unreadable += 1;
                }
            }
        } else {
            files.push(p);
        }
    }

    let mut warnings = 0usize;
    let mut errors = 0usize;
    for path in &files {
        let file = path.display().to_string();
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rc11: {file}: {e}");
                unreadable += 1;
                continue;
            }
        };
        let parsed = match parse_litmus(&src) {
            Ok(p) => p,
            Err(e) => {
                // A parse error is a diagnostic like any other: report it
                // and keep linting the rest of the batch.
                println!("{file}:{e}");
                errors += 1;
                continue;
            }
        };
        for d in analyze_lint(&parsed) {
            println!("{}", render_diagnostic(&file, &d));
            match d.severity {
                Severity::Warning => warnings += 1,
                Severity::Error => errors += 1,
            }
        }
    }

    println!(
        "{} file(s): {errors} error(s), {warnings} warning(s), {unreadable} unreadable{}",
        files.len(),
        if deny_warnings { " (denying warnings)" } else { "" }
    );
    let warnings_fail = deny_warnings && warnings > 0;
    if errors == 0 && unreadable == 0 && !warnings_fail && !files.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// rc11 fuzz
// ---------------------------------------------------------------------

fn cmd_fuzz(raw: &[String]) -> ExitCode {
    let mut opts = Opts { args: raw.to_vec() };
    let seed = match opts.parsed("--seed", 1u64) {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    let iters = match opts.parsed("--iters", 200usize) {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    let threads = match opts.usize_list("--threads", &[2, 4]) {
        Ok(v) if v.len() == 2 && v[0] >= 1 && v[0] <= v[1] => v,
        Ok(_) => return fail_usage("--threads: expected MIN,MAX with 1 <= MIN <= MAX"),
        Err(e) => return fail_usage(&e),
    };
    let stmts = match opts.parsed("--stmts", 4usize) {
        Ok(v) if v >= 1 => v,
        Ok(_) => return fail_usage("--stmts: must be at least 1"),
        Err(e) => return fail_usage(&e),
    };
    let max_states = match opts.parsed("--max-states", 1usize << 18) {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    let samples = match opts.parsed("--samples", 24usize) {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    let chaos = opts.flag(&["--chaos"]);
    if let Some(bad) = opts.args.first() {
        return fail_usage(&format!("fuzz takes no positional arguments (got `{bad}`)"));
    }

    // Injected panics are contained by the request path's catch_unwind,
    // but the default panic hook would still print a backtrace
    // per fault — hundreds of lines of noise over a chaos run. Filter
    // exactly the injected ones; real panics keep the default report.
    if chaos {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("chaos: injected"));
            if !injected {
                default_hook(info);
            }
        }));
    }

    let gen_opts = GenOptions {
        min_threads: threads[0],
        max_threads: threads[1],
        max_stmts: stmts,
        // Symmetry reduction is only exercised on programs with orbits,
        // so bias the generator towards cloned thread bodies.
        clone_threads: true,
        ..Default::default()
    };
    let diff_opts = DiffOptions {
        max_states,
        samples,
        chaos,
        ..Default::default()
    };

    println!(
        "fuzzing {iters} programs from seed {seed} \
         ({}–{} threads, ≤{stmts} statements/thread{})",
        gen_opts.min_threads,
        gen_opts.max_threads,
        if chaos { ", chaos lane on" } else { "" }
    );
    let step = (iters / 10).max(1);
    let report = fuzz(seed, iters, &gen_opts, &diff_opts, |r| {
        if r.iters % step == 0 && r.failure.is_none() {
            println!(
                "  {}/{iters}: {} passed, {} skipped, {} oracle states total",
                r.iters, r.passed, r.skipped, r.total_states
            );
        }
    });

    match &report.failure {
        None => {
            println!(
                "clean: {} checked, {} skipped (state cap), {} oracle states total",
                report.passed, report.skipped, report.total_states
            );
            ExitCode::SUCCESS
        }
        Some(f) => {
            println!(
                "FAILURE at iteration {} (seed {}): {}\n\nshrunk repro ({} statements):\n\n{}",
                f.iter,
                f.seed,
                f.what,
                f.shrunk.len(),
                f.source
            );
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// rc11 serve
// ---------------------------------------------------------------------

fn cmd_serve(raw: &[String]) -> ExitCode {
    let mut opts = Opts { args: raw.to_vec() };
    let addr = match opts.value_of("--addr") {
        Ok(v) => v.unwrap_or_else(|| "127.0.0.1:0".to_string()),
        Err(e) => return fail_usage(&e),
    };
    let pool = match opts.parsed("--pool", 2usize) {
        Ok(v) if v >= 1 => v,
        Ok(_) => return fail_usage("--pool: must be at least 1"),
        Err(e) => return fail_usage(&e),
    };
    let queue_cap = match opts.parsed("--queue", 64usize) {
        Ok(v) if v >= 1 => v,
        Ok(_) => return fail_usage("--queue: must be at least 1"),
        Err(e) => return fail_usage(&e),
    };
    let cache_cap = match opts.parsed("--cache-cap", 1024usize) {
        Ok(v) if v >= 1 => v,
        Ok(_) => return fail_usage("--cache-cap: must be at least 1"),
        Err(e) => return fail_usage(&e),
    };
    let cache_dir = match opts.value_of("--cache") {
        Ok(v) => v.map(PathBuf::from),
        Err(e) => return fail_usage(&e),
    };
    let metrics = opts.flag(&["--metrics"]);
    if let Some(bad) = opts.args.first() {
        return fail_usage(&format!("serve takes no positional arguments (got `{bad}`)"));
    }

    let config = DaemonConfig { addr, pool, queue_cap, cache_cap, cache_dir, metrics };
    match daemon::start(&config) {
        Ok(handle) => {
            // Scripts (`scripts/daemon_smoke.sh`) parse this line for the
            // resolved ephemeral port, so flush it through any pipe.
            println!("rc11d: listening on {}", handle.addr());
            let _ = std::io::stdout().flush();
            handle.join();
            println!("rc11d: stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rc11: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// rc11 submit
// ---------------------------------------------------------------------

fn cmd_submit(raw: &[String]) -> ExitCode {
    let mut opts = Opts { args: raw.to_vec() };
    let addr = match opts.value_of("--addr") {
        Ok(Some(v)) => v,
        Ok(None) => return fail_usage("submit: --addr is required"),
        Err(e) => return fail_usage(&e),
    };
    let no_cache = opts.flag(&["--no-cache"]);
    let expect_all_hits = opts.flag(&["--expect-all-hits"]);
    let want_stats = opts.flag(&["--stats"]);
    let ping_only = opts.flag(&["--ping"]);
    let want_shutdown = opts.flag(&["--shutdown"]);
    if let Some(bad) = opts.args.iter().find(|a| a.starts_with('-')) {
        return fail_usage(&format!("unknown option `{bad}`"));
    }

    let mut client = match daemon::Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rc11: submit: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if ping_only {
        return match client.ping() {
            Ok(true) => {
                println!("pong");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                eprintln!("rc11: submit: unexpected ping response");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("rc11: submit: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Enumerate .litmus files (directories sorted, like `rc11 run`).
    let mut files: Vec<PathBuf> = Vec::new();
    let mut broken = 0usize;
    for arg in &opts.args {
        let p = PathBuf::from(arg);
        if p.is_dir() {
            match std::fs::read_dir(&p) {
                Ok(entries) => {
                    let mut found: Vec<PathBuf> = entries
                        .flatten()
                        .map(|e| e.path())
                        .filter(|f| f.extension().is_some_and(|x| x == "litmus"))
                        .collect();
                    if found.is_empty() {
                        eprintln!("rc11: no .litmus files in {}", p.display());
                        broken += 1;
                    }
                    found.sort();
                    files.extend(found);
                }
                Err(e) => {
                    eprintln!("rc11: {}: {e}", p.display());
                    broken += 1;
                }
            }
        } else {
            files.push(p);
        }
    }
    if files.is_empty() && !want_stats && !want_shutdown {
        return fail_usage("submit: no .litmus files or directories given");
    }

    let mut failed = 0usize;
    let mut missed = 0usize;
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rc11: {}: {e}", path.display());
                broken += 1;
                continue;
            }
        };
        let mut extra = Vec::new();
        if no_cache {
            extra.push(("no_cache", Json::Bool(true)));
        }
        let response = match client.check_with(&source, extra) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("rc11: {}: {e}", path.display());
                failed += 1;
                continue;
            }
        };
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            let err = response.get("error").and_then(Json::as_str).unwrap_or("unknown error");
            println!("{:<24} FAIL  {err}", path.display());
            failed += 1;
            continue;
        }
        let name = response.get("name").and_then(Json::as_str).unwrap_or("?");
        let served = response.get("served").and_then(Json::as_str).unwrap_or("?");
        let states = response.get("states").and_then(Json::as_i64).unwrap_or(-1);
        let stop = response.get("stop").and_then(Json::as_str).unwrap_or("?");
        let pass = response.get("pass").and_then(Json::as_bool) == Some(true);
        let hit = response.get("cache_hit").and_then(Json::as_bool) == Some(true);
        if !hit {
            missed += 1;
        }
        println!(
            "{name:<16} {served:>10} {states:>8} {stop:>12}  {}",
            if pass { "pass" } else { "FAIL" }
        );
        if !pass {
            failed += 1;
        }
    }

    if want_stats {
        match client.stats() {
            Ok(s) => println!("stats: {}", s.to_string_line()),
            Err(e) => {
                eprintln!("rc11: submit: stats: {e}");
                failed += 1;
            }
        }
    }
    if expect_all_hits && missed > 0 {
        eprintln!("rc11: submit: {missed} response(s) were not served from the cache");
        failed += 1;
    }
    if want_shutdown {
        match client.shutdown() {
            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {
                println!("daemon stopping");
            }
            Ok(_) | Err(_) => {
                eprintln!("rc11: submit: shutdown request failed");
                failed += 1;
            }
        }
    }

    if failed == 0 && broken == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// rc11 top
// ---------------------------------------------------------------------

fn cmd_top(raw: &[String]) -> ExitCode {
    let mut opts = Opts { args: raw.to_vec() };
    let interval = match opts.parsed("--interval", 2.0f64) {
        Ok(v) if v > 0.0 => v,
        Ok(_) => return fail_usage("--interval: must be positive"),
        Err(e) => return fail_usage(&e),
    };
    let once = opts.flag(&["--once"]);
    if let Some(bad) = opts.args.iter().find(|a| a.starts_with('-')) {
        return fail_usage(&format!("unknown option `{bad}`"));
    }
    let addr = match opts.args.as_slice() {
        [a] => a.clone(),
        [] => return fail_usage("top: daemon address required"),
        _ => return fail_usage("top: exactly one daemon address"),
    };

    loop {
        // Reconnect each tick: a restarted daemon keeps the dashboard
        // alive instead of wedging a dead connection.
        let stats = daemon::Client::connect(&addr).and_then(|mut c| c.stats());
        match stats {
            Ok(s) => render_top(&addr, &s),
            Err(e) => {
                eprintln!("rc11: top: {addr}: {e}");
                if once {
                    return ExitCode::FAILURE;
                }
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

fn render_top(addr: &str, s: &Json) {
    let int = |key: &str| s.get(key).and_then(Json::as_i64).unwrap_or(0);
    let float = |key: &str| s.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!("rc11d {addr} — up {:.1}s", float("uptime_secs"));
    println!(
        "requests {} | explored {} | cache {} mem + {} disk hits, {} misses ({:.0}% hit rate)",
        int("requests"),
        int("explored_runs"),
        int("mem_hits"),
        int("disk_hits"),
        int("misses"),
        float("hit_rate") * 100.0
    );
    println!(
        "states {} ({:.0}/s) | transitions {} | queue {} (peak {})",
        int("states_explored"),
        float("states_per_sec"),
        int("transitions_explored"),
        int("queue_depth"),
        int("queue_peak")
    );
    if let Some(cfg) = s.get("config") {
        let cint = |key: &str| cfg.get(key).and_then(Json::as_i64).unwrap_or(0);
        println!(
            "config: pool {}, queue cap {}, cache cap {}, metrics {}",
            cint("pool"),
            cint("queue_cap"),
            cint("cache_cap"),
            if cfg.get("metrics").and_then(Json::as_bool) == Some(true) { "on" } else { "off" }
        );
    }
    let Some(m) = s.get("metrics") else {
        println!("(extended metrics off — start the daemon with --metrics)");
        return;
    };
    println!("latency (ms):     count      p50      p90      p99      max");
    for (label, key) in
        [("probe", "probe_latency"), ("explore", "explore_latency"), ("queue-wait", "queue_wait")]
    {
        if let Some(lat) = m.get(key) {
            let f = |k: &str| lat.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  {label:<12} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                lat.get("count").and_then(Json::as_i64).unwrap_or(0),
                f("p50_ms"),
                f("p90_ms"),
                f("p99_ms"),
                f("max_ms")
            );
        }
    }
    if let Some(workers) = m.get("workers").and_then(Json::as_arr) {
        let cells: Vec<String> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "w{i} {:.0}% ({} jobs, {:.2}s busy)",
                    w.get("utilization").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
                    w.get("jobs").and_then(Json::as_i64).unwrap_or(0),
                    w.get("busy_secs").and_then(Json::as_f64).unwrap_or(0.0)
                )
            })
            .collect();
        println!("workers: {}", cells.join(" | "));
    }
    if let Some(classes) = m.get("fp_classes") {
        let cells: Vec<String> = ["singleton", "warm", "hot"]
            .iter()
            .filter_map(|class| {
                classes.get(class).map(|c| {
                    format!(
                        "{class} {} fps, {} probes, {} hits ({:.0}%)",
                        c.get("fingerprints").and_then(Json::as_i64).unwrap_or(0),
                        c.get("probes").and_then(Json::as_i64).unwrap_or(0),
                        c.get("hits").and_then(Json::as_i64).unwrap_or(0),
                        c.get("hit_rate").and_then(Json::as_f64).unwrap_or(0.0) * 100.0
                    )
                })
            })
            .collect();
        println!("fp classes: {}", cells.join(" | "));
    }
}

// ---------------------------------------------------------------------
// rc11 trace-report
// ---------------------------------------------------------------------

fn cmd_trace_report(raw: &[String]) -> ExitCode {
    let opts = Opts { args: raw.to_vec() };
    if let Some(bad) = opts.args.iter().find(|a| a.starts_with('-')) {
        return fail_usage(&format!("unknown option `{bad}`"));
    }
    let file = match opts.args.as_slice() {
        [f] => f.clone(),
        [] => return fail_usage("trace-report: no trace file given"),
        _ => return fail_usage("trace-report: exactly one trace file"),
    };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rc11: trace-report: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = match rc11::check::read_trace(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rc11: trace-report: {file}: invalid trace: {e}");
            return ExitCode::FAILURE;
        }
    };

    use rc11::telemetry::{Counter, Phase};
    println!("trace: {} line(s) over {}ms", stats.lines, stats.last_ms);
    let events: Vec<String> =
        stats.events_by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!("events: {}", events.join(", "));
    println!(
        "files: {} ({} passed, {} failed), {} cache hit(s), {} with telemetry",
        stats.files,
        stats.passed,
        stats.files - stats.passed,
        stats.cache_hits,
        stats.files_with_telemetry
    );
    println!(
        "states {}, transitions {}, wall {:.1}ms",
        stats.states, stats.transitions, stats.wall_ms
    );
    let total_phase: u64 = Phase::ALL.iter().map(|&p| stats.phase(p)).sum();
    if total_phase > 0 {
        println!("phase attribution (files with telemetry):");
        for p in Phase::ALL {
            let ns = stats.phase(p);
            println!(
                "  {:<12} {:>10.3}ms {:>6.1}%",
                p.name(),
                ns as f64 / 1e6,
                ns as f64 * 100.0 / total_phase as f64
            );
        }
    }
    println!("reduction attribution:");
    for c in [
        Counter::DupHits,
        Counter::FpCollisions,
        Counter::SleepSetPrunes,
        Counter::PersistentSheds,
        Counter::SymmetryFolds,
        Counter::CapDegradations,
    ] {
        println!("  {:<20} {}", c.name(), stats.counter(c));
    }
    println!("engine counters: expansions {}", stats.counter(Counter::Expansions));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11::check::StopReason;

    fn budget_of(args: &[&str]) -> Budget {
        let mut opts = Opts { args: args.iter().map(|a| a.to_string()).collect() };
        run_budget(&mut opts).expect("options parse")
    }

    /// Seventy identical relaxed readers: no symmetry (the orbit is past
    /// the cap) and no sleep sets (past 64 threads), so the walk faces
    /// 2^70 states.
    fn seventy_readers() -> String {
        let threads: String = (0..70).map(|i| format!("thread T{i} {{ r = x; }}\n")).collect();
        format!("litmus \"wide\"\nvar x = 0\n{threads}observe T0.r\nexpected {{ (0) }}\n")
    }

    /// `rc11 run` bounds every run's memory by default; an explicit
    /// `--mem-budget` replaces the default, and a state space that
    /// explodes stops on it with `StopReason::MemBudget`.
    #[test]
    fn run_applies_the_default_memory_budget() {
        let default = budget_of(&["corpus/"]);
        assert_eq!(default.max_mem_bytes, Some(DEFAULT_MEM_BUDGET));
        assert_eq!((default.deadline, default.max_transitions), (None, None));

        let small = budget_of(&["--mem-budget", "2000000", "corpus/"]);
        assert_eq!(small.max_mem_bytes, Some(2_000_000));

        let src = seventy_readers();
        let l = parse_litmus(&src).expect("parses");
        let params = CheckParams { budget: small, ..CheckParams::default() };
        let r = CheckService::new().check_parts(&l.name, &l.prog, &l.observe, &l.expected, &params);
        assert_eq!(r.stop, StopReason::MemBudget);
    }
}
