//! Ablation A1: the literal Figure-5 engine (rational timestamps, set-based
//! states) versus the fast engine (dense ranks, canonicalising states) —
//! plus a sweep of the *exploration* engines (sequential vs the batched
//! parallel engine) over a real lock client, so one bench file covers
//! both engine axes of DESIGN.md — plus ablation A4
//! (`canon_vs_fingerprint`): the per-successor cost of materialised
//! canonicalisation + key clone (what visited-dedup used to pay on every
//! edge) against the zero-rebuild canonical fingerprint that replaced it,
//! measured over real successor configurations of a ticket-lock client
//! and recorded into `BENCH_explore.json`.
//!
//! Both memory engines execute the same deterministic transition script;
//! the fast engine additionally pays for canonicalisation, which is what
//! makes state-space deduplication possible at all (the literal engine's
//! rational timestamps make every interleaving representationally
//! distinct). Expected shape: the fast engine wins by an order of magnitude
//! on raw transitions, and only it supports visited-set dedup.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rc11::prelude::*;
use rc11_check::fxhash::{CanonicalFingerprint, FxHashSet};
use rc11_core::lit::{step as lit_step, LitCombined};
use rc11_core::{Combined, Comp, InitLoc, Loc, Tid, Val};
use rc11_lang::machine::successors;
use rc11_refine::harness;
use std::time::Instant;

const N_STEPS: usize = 60;

fn fast_script() -> Combined {
    let mut s = Combined::new(
        &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))],
        &[InitLoc::Var(Val::Int(0))],
        2,
    );
    for i in 0..N_STEPS {
        let t = Tid((i % 2) as u8);
        let u = Tid(((i + 1) % 2) as u8);
        let (comp, x) = match i % 3 {
            0 => (Comp::Client, Loc(0)),
            1 => (Comp::Client, Loc(1)),
            _ => (Comp::Lib, Loc(0)),
        };
        let w = *s.write_preds(comp, t, x).last().unwrap();
        s = s.apply_write(comp, t, x, Val::Int(i as i64), i % 2 == 0, w);
        let c = s.read_choices(comp, u, x).last().unwrap().from;
        s = s.apply_read(comp, u, x, true, c);
    }
    s
}

fn lit_script() -> LitCombined {
    let mut s = LitCombined::new(
        &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))],
        &[InitLoc::Var(Val::Int(0))],
        2,
    );
    for i in 0..N_STEPS {
        let t = Tid((i % 2) as u8);
        let u = Tid(((i + 1) % 2) as u8);
        let (comp, x) = match i % 3 {
            0 => (Comp::Client, Loc(0)),
            1 => (Comp::Client, Loc(1)),
            _ => (Comp::Lib, Loc(0)),
        };
        let w = *lit_step::write_choices(&s, comp, t, x).last().unwrap();
        s = lit_step::apply_write(&s, comp, t, x, Val::Int(i as i64), i % 2 == 0, w);
        let c = *lit_step::read_choices(&s, comp, u, x).last().unwrap();
        s = lit_step::apply_read(&s, comp, u, x, true, c);
    }
    s
}

fn bench(c: &mut Criterion) {
    if !criterion::selected("engine") {
        return;
    }
    // Cross-validate before timing: same observable value sequence.
    let f = fast_script();
    let l = lit_script();
    for loc in [Loc(0), Loc(1)] {
        let fv: Vec<Val> =
            f.client().mo(loc).iter().map(|&w| f.client().op(w).act.wrval()).collect();
        let mut lops: Vec<_> =
            l.client.ops.iter().filter(|(a, _)| a.loc() == loc).copied().collect();
        lops.sort_by_key(|a| a.1);
        let lv: Vec<Val> = lops.iter().map(|w| w.0.wrval()).collect();
        assert_eq!(fv, lv, "engines diverged on the ablation script");
    }
    eprintln!("[ablate_engine] engines agree on the {N_STEPS}-step script ✓");

    let mut g = c.benchmark_group("engine");
    g.bench_function("fast_script", |b| b.iter(fast_script));
    g.bench_function("literal_script", |b| b.iter(lit_script));
    g.bench_function("fast_script_plus_canonicalise", |b| {
        b.iter(|| fast_script().canonical())
    });
    g.finish();
}

/// The exploration-engine axis: sequential vs the batched
/// parallel engine (via `choose_engine`) over a three-thread ticket-lock
/// client, unreduced, with identical-state-count assertions on every
/// iteration.
fn bench_exploration(c: &mut Criterion) {
    if !criterion::selected("exploration_engine") {
        return;
    }
    let (client, l) = harness::counter_client(3);
    let conc = instantiate(&client, l, &rc11_locks::ticket());
    let prog = compile(&conc);
    let opts =
        ExploreOptions { record_traces: false, reduce: Reduction::None, ..Default::default() };
    let seq = Engine::Sequential.explore(&prog, &NoObjects, &opts);
    eprintln!(
        "[ablate_engine] exploration reference: {} states, {} transitions",
        seq.states, seq.transitions
    );

    let mut g = c.benchmark_group("exploration_engine");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let r = Engine::Sequential.explore(&prog, &NoObjects, &opts);
            assert_eq!(r.states, seq.states);
        })
    });
    for workers in [2usize, 4] {
        let engine = choose_engine(workers);
        g.bench_with_input(BenchmarkId::new("parallel", workers), &engine, |b, engine| {
            b.iter(|| {
                let r = engine.explore(&prog, &NoObjects, &opts);
                assert_eq!(r.states, seq.states);
            })
        });
    }
    g.finish();
}

/// Ablation A4: per-successor deduplication cost. Collect real raw
/// successor configurations from a ticket-lock exploration, then compare
/// what the visited structures pay per successor:
///
/// * `canonicalise_and_clone` — materialise the canonical form
///   (rebuilding every op record, `mo` vector and view) and clone it as a
///   map key, what materialised-canonical dedup (today only the reference
///   oracle) pays on every edge;
/// * `fingerprint_only` — the engines' duplicate-hit fast path: one
///   zero-rebuild hash walk;
/// * `fingerprint_plus_confirm` — the engines' full duplicate path
///   including the collision-bucket `canonical_eq` confirmation walk
///   against the interned representative.
///
/// The acceptance bar (checked here, not just plotted): fingerprinting is
/// strictly faster per successor than materialised canonicalisation.
fn bench_canon_vs_fingerprint(c: &mut Criterion) {
    if !criterion::selected("canon_vs_fingerprint") {
        return;
    }
    let (client, l) = harness::counter_client(3);
    let conc = instantiate(&client, l, &rc11_locks::ticket());
    let prog = compile(&conc);

    // Breadth-first sweep collecting raw (non-canonical) successors — the
    // exact objects the engines' visited structures are probed with.
    let mut raw_succs: Vec<Config> = Vec::new();
    let mut seen: FxHashSet<Config> = FxHashSet::default();
    let init = Config::initial(&prog).canonical();
    seen.insert(init.clone());
    let mut frontier = vec![init];
    while let Some(cfg) = frontier.pop() {
        if raw_succs.len() >= 1_500 {
            break;
        }
        for (_, succ) in successors(&prog, &NoObjects, &cfg, StepOptions::default()) {
            let canon = succ.canonical();
            raw_succs.push(succ);
            if seen.insert(canon.clone()) {
                frontier.push(canon);
            }
        }
    }
    // The interned representatives the confirmation walk compares against.
    let interned: Vec<Config> = raw_succs.iter().map(|s| s.canonical()).collect();
    eprintln!("[canon_vs_fingerprint] measuring over {} real successors", raw_succs.len());

    // Each per-successor workload is defined once and measured twice: by
    // the criterion group (plotted lines) and by the best-of-5 sweep below
    // (the BENCH_explore.json headline numbers) — so the two can't drift.
    let canon_workload = || {
        for s in &raw_succs {
            let canon = black_box(s).canonical();
            black_box(canon.clone());
        }
    };
    let fp_workload = || {
        for s in &raw_succs {
            black_box(black_box(s).canonical_fingerprint());
        }
    };
    let confirm_workload = || {
        for (s, canon) in raw_succs.iter().zip(&interned) {
            let perms = s.canonical_perms();
            black_box(s.fingerprint_with(&perms));
            assert!(s.canonical_eq_with(&perms, black_box(canon)));
        }
    };

    let mut g = c.benchmark_group("canon_vs_fingerprint");
    g.throughput(criterion::Throughput::Elements(raw_succs.len() as u64));
    g.bench_function("canonicalise_and_clone", |b| b.iter(canon_workload));
    g.bench_function("fingerprint_only", |b| b.iter(fp_workload));
    g.bench_function("fingerprint_plus_confirm", |b| b.iter(confirm_workload));
    g.finish();

    // Headline numbers for the perf trajectory: best-of-5 wall clock over
    // the whole successor set, reduced to ns per successor.
    let best_ns_per_succ = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_nanos() as f64 / raw_succs.len() as f64);
        }
        best
    };
    let canon_ns = best_ns_per_succ(&canon_workload);
    let fp_ns = best_ns_per_succ(&fp_workload);
    let confirm_ns = best_ns_per_succ(&confirm_workload);
    eprintln!(
        "[canon_vs_fingerprint] canonicalise+clone {canon_ns:.0} ns/succ, \
         fingerprint {fp_ns:.0} ns/succ ({:.2}x), fingerprint+confirm {confirm_ns:.0} ns/succ",
        canon_ns / fp_ns
    );
    bench::record_bench_json(
        "canon_vs_fingerprint",
        &[
            ("canonicalise_and_clone_ns_per_succ", canon_ns),
            ("fingerprint_only_ns_per_succ", fp_ns),
            ("fingerprint_plus_confirm_ns_per_succ", confirm_ns),
            ("speedup_fingerprint_vs_canonical", canon_ns / fp_ns),
        ],
    );
    assert!(
        fp_ns < canon_ns,
        "fingerprinting ({fp_ns:.0} ns/succ) must beat materialised \
         canonicalisation ({canon_ns:.0} ns/succ)"
    );
}

/// What a `reduction` entry must shed under `Reduction::Full`, measured on
/// the query whose reductions the bar is about.
#[derive(Clone, Copy)]
enum Bar {
    /// Report-only context.
    None,
    /// A5: a state query (sleep sets + symmetry) generates at least this
    /// factor fewer transitions — the diamond-dense spin shapes sleep
    /// sets prune hardest.
    StateTransitions(f64),
    /// A6: a state query keeps at least this factor fewer states — one
    /// representative per orbit of fully symmetric threads.
    StateStates(f64),
    /// A7: an outcome query (adding persistent sets) generates at least
    /// this factor fewer transitions — independent conflict components
    /// run one after another, collapsing their product into a sum.
    OutcomeTransitions(f64),
}

/// Ablations A5–A7 behind the one reduction switch. Every entry is decided
/// unreduced (`Reduction::None`) and under `Reduction::Full`, both as an
/// outcome query (`explore`: sleep sets, persistent sets, symmetry) and as
/// a state query (`explore_with`: sleep sets, symmetry). Checked on every
/// entry, not just plotted: terminal and deadlock counts are exact under
/// both queries, states and transitions never grow, and on programs
/// without symmetric threads the state query keeps every state (sleep
/// sets prune transitions only). The acceptance bars: ≥ 1.5× transitions
/// on `ttas4`/`mp_spin4` (A5), ≥ 3× states on `sym_cas3`/`sym_inc3`/
/// `sym_fai4` (A6), ≥ 5× transitions on `ttas2x2`/`mp_spin2x3`/
/// `deqspin2x2` (A7). Counts and factors go to `BENCH_explore.json`.
fn bench_reduction(c: &mut Criterion) {
    if !criterion::selected("reduction") {
        return;
    }
    let corpus = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let corpus_entries: [(&str, &str, Bar); 13] = [
        ("spinlock_ttas4", "ttas4.litmus", Bar::StateTransitions(1.5)),
        ("mp_spin4", "mp_spin4.litmus", Bar::StateTransitions(1.5)),
        ("sym_cas3", "sym_cas3.litmus", Bar::StateStates(3.0)),
        ("sym_inc3", "sym_inc3.litmus", Bar::StateStates(3.0)),
        ("sym_fai4", "sym_fai4.litmus", Bar::StateStates(3.0)),
        ("ttas2x2", "ttas2x2.litmus", Bar::OutcomeTransitions(5.0)),
        ("mp_spin2x3", "mp_spin2x3.litmus", Bar::OutcomeTransitions(5.0)),
        ("deqspin2x2", "deqspin2x2.litmus", Bar::OutcomeTransitions(5.0)),
        ("caslock", "caslock.litmus", Bar::None),
        ("mp_spin_ra", "mp_spin_ra.litmus", Bar::None),
        ("two_rmw", "2rmw.litmus", Bar::None),
        ("popspin2x2", "popspin2x2.litmus", Bar::None),
        ("ticket2", "ticket2.litmus", Bar::None),
    ];
    let mut progs: Vec<(&str, Bar, rc11_lang::CfgProgram, bool)> = corpus_entries
        .iter()
        .map(|&(key, file, bar)| {
            let l = rc11_litmus::load_file(corpus.join(file))
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            let uses_objects = !l.prog.objects.is_empty();
            (key, bar, compile(&l.prog), uses_objects)
        })
        .collect();
    let (client, l) = harness::counter_client(3);
    let conc = instantiate(&client, l, &rc11_locks::ticket());
    progs.push(("ticket_counter3", Bar::None, compile(&conc), false));

    let full = ExploreOptions { record_traces: false, ..Default::default() };
    let none = ExploreOptions { reduce: Reduction::None, ..full.clone() };
    let mut json: Vec<(String, f64)> = Vec::new();
    for (key, bar, prog, uses_objects) in &progs {
        let objs: &(dyn rc11_lang::machine::ObjectSemantics + Sync) =
            if *uses_objects { &AbstractObjects } else { &NoObjects };
        let unreduced = Engine::Sequential.explore(prog, objs, &none);
        let outcomes = Engine::Sequential.explore(prog, objs, &full);
        let states = Engine::Sequential.explore_with(prog, objs, &full, |_, _| {});
        for (query, r) in [("outcome", &outcomes), ("state", &states)] {
            assert_eq!(
                (r.terminated.len(), r.deadlocked.len()),
                (unreduced.terminated.len(), unreduced.deadlocked.len()),
                "{key}: a {query} query changed the terminal or deadlock count"
            );
            assert!(
                r.states <= unreduced.states && r.transitions <= unreduced.transitions,
                "{key}: a {query} query grew the counts"
            );
        }
        if rc11::analyze::thread_symmetry(prog).is_trivial() {
            assert_eq!(states.states, unreduced.states, "{key}: sleep sets lost states");
        }
        let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
        let (what, factor, floor) = match *bar {
            Bar::None => ("outcome transitions", ratio(unreduced.transitions, outcomes.transitions), 0.0),
            Bar::StateTransitions(f) => {
                ("state-query transitions", ratio(unreduced.transitions, states.transitions), f)
            }
            Bar::StateStates(f) => ("state-query states", ratio(unreduced.states, states.states), f),
            Bar::OutcomeTransitions(f) => {
                ("outcome transitions", ratio(unreduced.transitions, outcomes.transitions), f)
            }
        };
        eprintln!(
            "[reduction] {key}: {}/{} unreduced, {}/{} state query, {}/{} outcome query \
             (states/transitions); {what} {factor:.2}x",
            unreduced.states,
            unreduced.transitions,
            states.states,
            states.transitions,
            outcomes.states,
            outcomes.transitions
        );
        assert!(factor >= floor, "{key}: {what} reduction {factor:.2}x below the {floor}x bar");
        for (mode, r) in [("none", &unreduced), ("state", &states), ("outcome", &outcomes)] {
            json.push((format!("{key}_states_{mode}"), r.states as f64));
            json.push((format!("{key}_transitions_{mode}"), r.transitions as f64));
        }
        json.push((format!("{key}_reduction"), factor));
    }

    // Wall-clock lines: the reduction must also be a real time win on the
    // spin and lock entries, not just a count.
    let mut g = c.benchmark_group("reduction");
    g.sample_size(10);
    for (key, _, prog, uses_objects) in &progs {
        if !["spinlock_ttas4", "ttas2x2", "sym_fai4", "ticket_counter3"].contains(key) {
            continue;
        }
        let objs: &(dyn rc11_lang::machine::ObjectSemantics + Sync) =
            if *uses_objects { &AbstractObjects } else { &NoObjects };
        for (mode, opts) in [("none", &none), ("full", &full)] {
            g.bench_function(format!("{key}/{mode}"), |b| {
                b.iter(|| black_box(Engine::Sequential.explore(prog, objs, opts).states))
            });
        }
    }
    g.finish();

    let borrowed: Vec<(&str, f64)> = json.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    bench::record_bench_json("reduction", &borrowed);
}

/// The telemetry tax (DESIGN.md §9). The same unreduced ticket-lock
/// exploration (so state counts match at every worker count) is
/// decided with no sink on `ExploreOptions::telemetry` (the default — one
/// `Option` test per instrumentation point) and with a live sink attached
/// (sharded relaxed counters + frontier gauge + phase timer). The two
/// configurations are measured *interleaved* (round-robin, best-of-N each)
/// so drift in the container's background load cannot masquerade as
/// overhead, and the headline states/s pair plus their ratio is recorded
/// into `BENCH_explore.json`. The acceptance bar — checked here, not just
/// plotted — is that an attached sink keeps ≥ 0.75× of the disabled-path
/// throughput; every iteration also asserts bit-identical state counts and
/// that the attached snapshot's `states` counter agrees with the report.
fn bench_telemetry_overhead(c: &mut Criterion) {
    if !criterion::selected("telemetry_overhead") {
        return;
    }
    let (client, l) = harness::counter_client(3);
    let conc = instantiate(&client, l, &rc11_locks::ticket());
    let prog = compile(&conc);
    let off_opts =
        ExploreOptions { record_traces: false, reduce: Reduction::None, ..Default::default() };
    let reference = Engine::Sequential.explore(&prog, &NoObjects, &off_opts);
    eprintln!(
        "[telemetry_overhead] reference: {} states, {} transitions",
        reference.states, reference.transitions
    );

    let run = |opts: &ExploreOptions| -> f64 {
        let t0 = Instant::now();
        let r = Engine::Sequential.explore(&prog, &NoObjects, opts);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(r.states, reference.states, "telemetry changed the state count");
        if let Some(snap) = &r.telemetry {
            assert_eq!(
                snap.get(rc11::telemetry::Counter::States),
                r.states as u64,
                "snapshot disagrees with the report it rides on"
            );
        }
        r.states as f64 / secs
    };

    // Interleaved best-of-N: a fresh sink per enabled round, alternating
    // with disabled rounds so background-load drift hits both equally.
    const ROUNDS: usize = 7;
    let (mut off_best, mut on_best) = (0.0f64, 0.0f64);
    for _ in 0..ROUNDS {
        off_best = off_best.max(run(&off_opts));
        let on_opts = ExploreOptions {
            telemetry: Some(rc11::telemetry::Telemetry::shared()),
            ..off_opts.clone()
        };
        on_best = on_best.max(run(&on_opts));
    }
    let ratio = on_best / off_best;
    eprintln!(
        "[telemetry_overhead] disabled {off_best:.0} states/s, \
         enabled {on_best:.0} states/s ({ratio:.3}x)"
    );
    bench::record_bench_json(
        "telemetry_overhead",
        &[
            ("disabled_states_per_sec", off_best),
            ("enabled_states_per_sec", on_best),
            ("enabled_over_disabled", ratio),
        ],
    );
    assert!(
        ratio >= 0.75,
        "an attached telemetry sink costs too much: {on_best:.0} vs {off_best:.0} states/s \
         ({ratio:.3}x, bar 0.75x)"
    );

    // Plotted lines: the same pair under criterion, sequential and at two
    // workers (the parallel engine shares the instrumentation points).
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(10);
    for (mode, sink) in [("disabled", false), ("enabled", true)] {
        for workers in [1usize, 2] {
            let engine = choose_engine(workers);
            g.bench_function(format!("{mode}/{workers}w"), |b| {
                b.iter(|| {
                    let opts = ExploreOptions {
                        telemetry: sink.then(rc11::telemetry::Telemetry::shared),
                        ..off_opts.clone()
                    };
                    let r = engine.explore(&prog, &NoObjects, &opts);
                    assert_eq!(r.states, reference.states);
                    black_box(r.states)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench,
    bench_exploration,
    bench_canon_vs_fingerprint,
    bench_reduction,
    bench_telemetry_overhead
);
criterion_main!(benches);
