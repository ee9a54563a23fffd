//! Ablation A3: parallel exploration scaling — plus the reduction lines.
//!
//! Two workloads:
//!
//! * **counter4** — the four-thread ticket-lock client (~3.7k canonical
//!   states): the criterion group sweeps it through the unified [`Engine`]
//!   API at 1/2/4/8 workers, asserting identical state counts.
//!   `Engine::Parallel { workers: 1 }` is forced (rather than
//!   `choose_engine(1)`, which would hand back the sequential engine) so
//!   the sweep exposes the parallel engine's fixed overhead at one worker.
//! * **counter5** — the five-thread client (~56k states, ~319k
//!   transitions): a frontier deep enough to keep every worker fed, used
//!   for the states/second throughput lines recorded into
//!   `BENCH_explore.json` and for the scaling-shape assertions.
//!
//! Since the keep-local scheduling fix (workers drain a private backlog
//! and only export overflow chunks — see `rc11_check::parallel`), the
//! expected shape is: the one-worker parallel engine tracks the
//! sequential explorer closely (it no longer round-trips every state
//! through the shared injector), and adding workers must not *lose*
//! throughput on the deep frontier. The multi-worker speedup assertion is
//! gated on the host actually having more than one CPU —
//! `available_parallelism` — because on a single-core host every extra
//! worker is pure context-switch overhead and the "shape" cannot be
//! observed. The always-on assertions are CPU-count-independent:
//! identical state counts everywhere, and the one-worker engine within 2×
//! of sequential. Both workloads run unreduced (`Reduction::None`), so
//! state counts are the same at every worker count.
//!
//! The `one_worker_parity` section times `Engine::Parallel { workers: 1 }`
//! against the sequential explorer under the default reduction, on the
//! summed corpus and on counter5, alternating the two engines in-process
//! so both see the same host load; the parallel engine must stay within
//! 10% of sequential on both (medians over the rounds).
//!
//! The reduction lines re-run the deep workload under the default
//! `Reduction::Full` (an outcome query: sleep sets, persistent sets,
//! symmetry): never more states or transitions, the same terminal count,
//! and the recorded `deep_full_*` factors show what the reduction buys
//! end-to-end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rc11::lang::machine::ObjectSemantics;
use rc11::prelude::*;
use rc11_refine::harness;
use std::time::Instant;

fn build_prog(n_threads: usize) -> CfgProgram {
    let (client, l) = harness::counter_client(n_threads);
    let conc = instantiate(&client, l, &rc11_locks::ticket());
    compile(&conc)
}

/// Every corpus program, compiled, with the object semantics it needs.
fn corpus() -> Vec<(CfgProgram, bool)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let parsed = parse_litmus(&std::fs::read_to_string(p).expect("readable"))
                .expect("corpus parses");
            (compile(&parsed.prog), !parsed.prog.objects.is_empty())
        })
        .collect()
}

/// Seconds one engine spends exploring every program of `progs`.
fn explore_secs(engine: Engine, progs: &[(CfgProgram, bool)], opts: &ExploreOptions) -> f64 {
    let t0 = Instant::now();
    for (prog, objects) in progs {
        let objs: &(dyn ObjectSemantics + Sync) =
            if *objects { &AbstractObjects } else { &NoObjects };
        let r = engine.explore(prog, objs, opts);
        assert!(r.stop.is_complete());
    }
    t0.elapsed().as_secs_f64()
}

/// The median of `v`.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One parallel worker against the sequential explorer under the default
/// reduction, alternating engines (and which goes first) every round.
/// Returns (sequential median s, parallel median s, parallel / sequential).
fn parity(progs: &[(CfgProgram, bool)], rounds: usize) -> (f64, f64, f64) {
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    let par = Engine::Parallel { workers: 1 };
    explore_secs(Engine::Sequential, progs, &opts);
    explore_secs(par, progs, &opts);
    let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        if round % 2 == 0 {
            seq_s.push(explore_secs(Engine::Sequential, progs, &opts));
            par_s.push(explore_secs(par, progs, &opts));
        } else {
            par_s.push(explore_secs(par, progs, &opts));
            seq_s.push(explore_secs(Engine::Sequential, progs, &opts));
        }
    }
    let (seq, par) = (median(seq_s), median(par_s));
    (seq, par, par / seq)
}

fn one_worker_parity() {
    let (c_seq, c_par, c_ratio) = parity(&corpus(), 31);
    let (d_seq, d_par, d_ratio) = parity(&[(build_prog(5), false)], 31);
    for (name, seq, par, ratio) in
        [("corpus", c_seq, c_par, c_ratio), ("counter5", d_seq, d_par, d_ratio)]
    {
        eprintln!(
            "[one_worker_parity] {name}: sequential {:.2} ms, parallel(1) {:.2} ms, \
             ratio {ratio:.3}",
            seq * 1e3,
            par * 1e3
        );
    }
    bench::record_bench_json(
        "one_worker_parity",
        &[
            ("corpus_sequential_ms", c_seq * 1e3),
            ("corpus_parallel_1w_ms", c_par * 1e3),
            ("corpus_parallel_1w_over_sequential", c_ratio),
            ("counter5_full_sequential_ms", d_seq * 1e3),
            ("counter5_full_parallel_1w_ms", d_par * 1e3),
            ("counter5_full_parallel_1w_over_sequential", d_ratio),
        ],
    );
    for (name, ratio) in [("corpus", c_ratio), ("counter5", d_ratio)] {
        assert!(
            ratio <= 1.10,
            "one parallel worker took {ratio:.3}x the sequential time on {name}: \
             the per-state cost at one active worker should match the sequential explorer's"
        );
    }
}

fn bench(c: &mut Criterion) {
    if !criterion::selected("parallel_scaling") {
        return;
    }
    one_worker_parity();
    let prog = build_prog(4);
    let opts =
        ExploreOptions { record_traces: false, reduce: Reduction::None, ..Default::default() };

    let seq = Engine::Sequential.explore(&prog, &NoObjects, &opts);
    eprintln!(
        "[parallel] {}: {} states, {} transitions (sequential reference)",
        prog.source.name, seq.states, seq.transitions
    );

    let mut g = c.benchmark_group("parallel_scaling");
    g.throughput(Throughput::Elements(seq.states as u64));
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let r = Engine::Sequential.explore(&prog, &NoObjects, &opts);
            assert_eq!(r.states, seq.states);
        })
    });
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::Parallel { workers };
        g.bench_with_input(BenchmarkId::new("workers", workers), &engine, |b, engine| {
            b.iter(|| {
                let r = engine.explore(&prog, &NoObjects, &opts);
                assert_eq!(r.states, seq.states, "worker count must not change the state count");
            })
        });
    }
    g.finish();

    // ------------------------------------------------------------------
    // Shallow-workload throughput lines (the historical counter4 keys,
    // kept fresh): best-of-3 wall clock per engine configuration.
    // ------------------------------------------------------------------
    let mut entries: Vec<(String, f64)> = Vec::new();
    {
        let states_per_sec = |engine: &Engine| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                let r = engine.explore(&prog, &NoObjects, &opts);
                assert_eq!(r.states, seq.states);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            seq.states as f64 / best
        };
        entries.push((
            "sequential_states_per_sec".to_string(),
            states_per_sec(&Engine::Sequential),
        ));
        for workers in [1usize, 2, 4, 8] {
            entries.push((
                format!("parallel_{workers}w_states_per_sec"),
                states_per_sec(&Engine::Parallel { workers }),
            ));
        }
    }

    // ------------------------------------------------------------------
    // Deep-frontier throughput lines (BENCH_explore.json): the five-thread
    // client, best-of-2 wall clock per engine configuration.
    // ------------------------------------------------------------------
    let deep = build_prog(5);
    let deep_seq = Engine::Sequential.explore(&deep, &NoObjects, &opts);
    eprintln!(
        "[parallel] {}: {} states, {} transitions (deep frontier)",
        deep.source.name, deep_seq.states, deep_seq.transitions
    );
    let states_per_sec = |engine: &Engine, opts: &ExploreOptions| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = Instant::now();
            let r = engine.explore(&deep, &NoObjects, opts);
            assert_eq!(r.states, deep_seq.states);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        deep_seq.states as f64 / best
    };
    let seq_tput = states_per_sec(&Engine::Sequential, &opts);
    entries.push(("deep_sequential_states_per_sec".to_string(), seq_tput));
    let mut worker_tput = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let tput = states_per_sec(&Engine::Parallel { workers }, &opts);
        worker_tput.push((workers, tput));
        entries.push((format!("deep_parallel_{workers}w_states_per_sec"), tput));
    }

    // The same deep exploration under the default reduction: never more
    // states or transitions, the same terminals, and the speedup is the
    // work the reduction saves end-to-end.
    let full_opts = ExploreOptions { reduce: Reduction::Full, ..opts.clone() };
    let best_secs = |opts: &ExploreOptions| -> (f64, EngineReport) {
        let mut best = f64::INFINITY;
        let mut report = EngineReport::default();
        for _ in 0..2 {
            let t0 = Instant::now();
            report = Engine::Sequential.explore(&deep, &NoObjects, opts);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, report)
    };
    let (full_secs, deep_full) = best_secs(&full_opts);
    let (none_secs, _) = best_secs(&opts);
    assert!(deep_full.states <= deep_seq.states && deep_full.transitions <= deep_seq.transitions);
    assert_eq!(deep_full.terminated.len(), deep_seq.terminated.len());
    entries.push((
        "deep_full_state_reduction".to_string(),
        deep_seq.states as f64 / deep_full.states.max(1) as f64,
    ));
    entries.push((
        "deep_full_transition_reduction".to_string(),
        deep_seq.transitions as f64 / deep_full.transitions.max(1) as f64,
    ));
    entries.push(("deep_full_sequential_speedup".to_string(), none_secs / full_secs));

    for (name, v) in &entries {
        eprintln!("[parallel_scaling] {name}: {v:.0}");
    }
    let borrowed: Vec<(&str, f64)> = entries.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    bench::record_bench_json("parallel_scaling", &borrowed);

    // ------------------------------------------------------------------
    // Scaling-shape assertions.
    // ------------------------------------------------------------------
    let one_w = worker_tput[0].1;
    let two_w = worker_tput[1].1;
    assert!(
        one_w >= 0.5 * seq_tput,
        "one parallel worker fell to {one_w:.0} states/s vs sequential {seq_tput:.0}: \
         the keep-local backlog should keep its overhead far below 2x"
    );
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cpus >= 2 {
        assert!(
            two_w >= 0.95 * one_w,
            "two workers ({two_w:.0} states/s) lost to one ({one_w:.0}) on a deep \
             frontier with {cpus} CPUs available — the scaling regression is back"
        );
    } else {
        eprintln!(
            "[parallel_scaling] single-CPU host: skipping the ≥2-worker speedup \
             assertion (2w {two_w:.0} vs 1w {one_w:.0} states/s is pure scheduling noise here)"
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
