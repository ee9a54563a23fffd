//! The telemetry layer's contract, corpus-wide (DESIGN.md §9).
//!
//! Telemetry is observability, never semantics:
//!
//! * **Bit-identity**: every corpus file explores to the *identical*
//!   report with a sink attached and without one — states, transitions,
//!   terminals, deadlocks, violations, stop reason — wherever the report
//!   is deterministic: sequentially, or unreduced at 4 workers. Fully
//!   reduced parallel counts depend on arrival order, so those runs are
//!   held to the `rc11_check::reference` oracle instead: the same stop
//!   reason, terminal and deadlock multisets, and counts never above it.
//! * **Counter consistency**: the snapshot a run attaches agrees with
//!   the report it rides on (`states`/`transitions` match exactly),
//!   per-worker expansion slots sum to the total expansion counter, and
//!   reduction counters are zero under `Reduction::None`.
//! * **Delta isolation**: one cumulative sink shared across several
//!   runs (the `--progress` configuration) still attaches exact per-run
//!   snapshots.
//! * **Trace attribution**: `rc11 run --trace` credits each file's load
//!   to the parse phase, so `trace-report` never reads a 0 ms parse.

use rc11::check::reference;
use rc11::prelude::*;
use rc11::telemetry::{Counter, Telemetry};
use rc11_litmus as litmus;
use std::path::PathBuf;
use std::sync::Arc;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

const WORKERS: [usize; 2] = [1, 4];

fn with_sink(opts: &ExploreOptions) -> (ExploreOptions, Arc<Telemetry>) {
    let tel = Telemetry::shared();
    (ExploreOptions { telemetry: Some(Arc::clone(&tel)), ..opts.clone() }, tel)
}

/// Configurations with their multiplicities (engines push in any order).
fn multiset(cfgs: &[Config]) -> std::collections::HashMap<Config, usize> {
    let mut m = std::collections::HashMap::new();
    for c in cfgs {
        *m.entry(c.clone()).or_insert(0) += 1;
    }
    m
}

#[test]
fn telemetry_is_report_bit_identical_corpus_wide() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let oracle = reference::explore(&prog, objs, usize::MAX, |_, _| {});
        for (workers, reduce) in WORKERS
            .into_iter()
            .flat_map(|w| [(w, Reduction::None), (w, Reduction::Full)])
        {
            let engine = choose_engine(workers);
            let base = ExploreOptions { record_traces: false, reduce, ..Default::default() };
            let off = engine.explore(&prog, objs, &base);
            let (on_opts, _tel) = with_sink(&base);
            let on = engine.explore(&prog, objs, &on_opts);
            let what =
                format!("{} ({}) @ {workers} worker(s), {reduce:?}", l.name, path.display());
            if workers == 1 || reduce == Reduction::None {
                assert!(off.same_results(&on), "{what}: telemetry changed the report");
                assert_eq!(off.terminated, on.terminated, "{what}: terminal configurations");
                assert_eq!(off.violations, on.violations, "{what}: violations");
            } else {
                for (run, r) in [("off", &off), ("on", &on)] {
                    assert_eq!(r.stop, oracle.stop, "{what} [{run}]: stop");
                    assert!(
                        r.states <= oracle.states && r.transitions <= oracle.transitions,
                        "{what} [{run}]: counts above the oracle's"
                    );
                    assert_eq!(
                        multiset(&r.terminated),
                        multiset(&oracle.terminated),
                        "{what} [{run}]: terminal configurations"
                    );
                    assert_eq!(
                        multiset(&r.deadlocked),
                        multiset(&oracle.deadlocked),
                        "{what} [{run}]: deadlocked configurations"
                    );
                }
            }
            assert!(off.telemetry.is_none(), "{what}: snapshot without a sink");
            assert!(on.telemetry.is_some(), "{what}: no snapshot despite a sink");
            assert!(on.wall > std::time::Duration::ZERO, "{what}: wall clock not populated");
            assert!(off.wall > std::time::Duration::ZERO, "{what}: wall clock not populated");
        }
    }
}

#[test]
fn snapshot_counters_match_the_report() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        for workers in WORKERS {
            let engine = choose_engine(workers);
            let base = ExploreOptions { record_traces: false, ..Default::default() };
            let (opts, _tel) = with_sink(&base);
            let report = engine.explore(&prog, objs, &opts);
            let what = format!("{} ({}) @ {workers} worker(s)", l.name, path.display());
            assert_eq!(report.stop, StopReason::Complete, "{what}: corpus runs complete");
            let snap = report.telemetry.as_ref().unwrap_or_else(|| panic!("{what}: no snapshot"));
            assert_eq!(
                snap.get(Counter::States),
                report.states as u64,
                "{what}: snapshot states vs report states"
            );
            assert_eq!(
                snap.get(Counter::Transitions),
                report.transitions as u64,
                "{what}: snapshot transitions vs report transitions"
            );
            let per_worker: u64 = snap.worker_expansions.iter().sum();
            assert_eq!(
                per_worker,
                snap.get(Counter::Expansions),
                "{what}: per-worker expansion slots must sum to the total"
            );
            assert!(
                snap.worker_expansions.len() <= workers.max(1),
                "{what}: more expansion slots than workers"
            );
            assert!(
                snap.frontier_peak >= 1,
                "{what}: the initial state must have registered on the frontier gauge"
            );
        }
    }
}

#[test]
fn prune_counters_are_zero_without_reductions() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        for workers in WORKERS {
            let engine = choose_engine(workers);
            // Explicitly no reduction.
            let base = ExploreOptions {
                record_traces: false,
                reduce: Reduction::None,
                ..Default::default()
            };
            let (opts, _tel) = with_sink(&base);
            let report = engine.explore(&prog, objs, &opts);
            let snap = report.telemetry.as_ref().expect("sink attached");
            let what = format!("{} ({}) @ {workers} worker(s)", l.name, path.display());
            for c in [
                Counter::SleepSetPrunes,
                Counter::PersistentSheds,
                Counter::SymmetryFolds,
                Counter::CapDegradations,
            ] {
                assert_eq!(snap.get(c), 0, "{what}: {} without its reduction", c.name());
            }
        }
    }
}

#[test]
fn reductions_do_register_on_their_counters() {
    // One representative with real interleaving (store buffering) so the
    // sleep-set and persistent-set counters actually fire.
    let l = litmus::load_file(corpus_dir().join("sb_rlx.litmus")).unwrap_or_else(|e| panic!("{e}"));
    let prog = compile(&l.prog);
    let objs = litmus::objects_for(&l);
    for workers in WORKERS {
        let engine = choose_engine(workers);
        let base = ExploreOptions { record_traces: false, ..Default::default() };
        let (opts, _tel) = with_sink(&base);
        let report = engine.explore(&prog, objs, &opts);
        let snap = report.telemetry.as_ref().expect("sink attached");
        assert!(
            snap.get(Counter::SleepSetPrunes) + snap.get(Counter::PersistentSheds) > 0,
            "@{workers} worker(s): the default reduction on SB must prune or shed something"
        );
    }
}

#[test]
fn shared_sink_still_attaches_exact_per_run_deltas() {
    // The --progress configuration: one cumulative sink across a batch.
    let tel = Telemetry::shared();
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    let mut checked = 0usize;
    for (_path, loaded) in entries.into_iter().take(6) {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let opts = ExploreOptions {
            record_traces: false,
            telemetry: Some(Arc::clone(&tel)),
            ..Default::default()
        };
        let report = Engine::Sequential.explore(&prog, objs, &opts);
        let snap = report.telemetry.as_ref().expect("sink attached");
        assert_eq!(
            snap.get(Counter::States),
            report.states as u64,
            "{}: delta must isolate this run from the cumulative sink",
            l.name
        );
        checked += 1;
    }
    assert!(checked >= 2, "need at least two runs to exercise delta isolation");
    // The cumulative sink kept the totals (it is what --progress reads).
    assert!(tel.snapshot().get(Counter::States) > 0);
}

#[test]
fn run_trace_records_a_nonzero_parse_phase() {
    let trace = std::env::temp_dir().join(format!("rc11-parse-trace-{}.jsonl", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rc11"))
        .arg("run")
        .arg(corpus_dir().join("mp_ra.litmus"))
        .arg(corpus_dir().join("sb_ra.litmus"))
        .arg("--trace")
        .arg(&trace)
        .arg("-q")
        .output()
        .expect("rc11 runs");
    assert!(out.status.success(), "rc11 run failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let stats = rc11::check::read_trace(&text).expect("trace validates");
    assert_eq!(stats.files, 2);
    assert!(stats.phase(rc11::telemetry::Phase::Parse) > 0, "parse phase attributed");
    assert!(stats.phase(rc11::telemetry::Phase::Explore) > 0, "explore phase attributed");
}
