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
/// client, with identical-state-count assertions on every iteration.
fn bench_exploration(c: &mut Criterion) {
    if !criterion::selected("exploration_engine") {
        return;
    }
    let (client, l) = harness::counter_client(3);
    let conc = instantiate(&client, l, &rc11_locks::ticket());
    let prog = compile(&conc);
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
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

/// Ablation A5: sleep-set partial-order reduction. For each entry the
/// same exploration is decided with `ExploreOptions::por` off and on; POR
/// must preserve the state count bit-exactly (it prunes commuted sibling
/// orders, not states) while generating fewer transitions. The headline
/// metric is the *transition reduction factor* (full / reduced), recorded
/// into `BENCH_explore.json`; the acceptance bar — checked here, not just
/// plotted — is ≥ 1.5× on the spinlock (`ttas4`) and MP-spin (`mp_spin4`)
/// corpus entries, the diamond-dense shapes sleep sets prune hardest. The
/// smaller two-thread corpus twins ride along as report-only context, as
/// does the ticket-lock client the other ablations measure.
fn bench_por(c: &mut Criterion) {
    if !criterion::selected("por_reduction") {
        return;
    }
    let corpus = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    // (json key, corpus file, must hit the ≥1.5× acceptance bar)
    let corpus_entries: [(&str, &str, bool); 4] = [
        ("spinlock_ttas4", "ttas4.litmus", true),
        ("mp_spin4", "mp_spin4.litmus", true),
        ("caslock", "caslock.litmus", false),
        ("mp_spin_ra", "mp_spin_ra.litmus", false),
    ];
    let mut progs: Vec<(&str, bool, rc11_lang::CfgProgram, bool)> = corpus_entries
        .iter()
        .map(|&(key, file, must)| {
            let l = rc11_litmus::load_file(corpus.join(file))
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            let uses_objects = !l.prog.objects.is_empty();
            (key, must, compile(&l.prog), uses_objects)
        })
        .collect();
    let (client, l) = harness::counter_client(3);
    let conc = instantiate(&client, l, &rc11_locks::ticket());
    progs.push(("ticket_counter3", false, compile(&conc), false));

    let base = ExploreOptions { record_traces: false, ..Default::default() };
    let por_opts = ExploreOptions { por: true, ..base.clone() };
    let mut json: Vec<(String, f64)> = Vec::new();
    let mut bench_progs = Vec::new();
    for (key, must_reduce, prog, uses_objects) in progs {
        let objs: &(dyn rc11_lang::machine::ObjectSemantics + Sync) =
            if uses_objects { &AbstractObjects } else { &NoObjects };
        let full = Engine::Sequential.explore(&prog, objs, &base);
        let por = Engine::Sequential.explore(&prog, objs, &por_opts);
        assert_eq!(por.states, full.states, "{key}: POR must not change the state count");
        assert_eq!(
            por.terminated.len(),
            full.terminated.len(),
            "{key}: POR must not change the terminal count"
        );
        assert!(por.transitions <= full.transitions, "{key}: POR must not add transitions");
        let factor = full.transitions as f64 / por.transitions.max(1) as f64;
        eprintln!(
            "[por_reduction] {key}: {} states, {} → {} transitions ({factor:.2}x)",
            full.states, full.transitions, por.transitions
        );
        if must_reduce {
            assert!(
                factor >= 1.5,
                "{key}: POR reduction {factor:.2}x below the 1.5x acceptance bar \
                 ({} vs {} transitions)",
                por.transitions,
                full.transitions
            );
        }
        json.push((format!("{key}_transitions_full"), full.transitions as f64));
        json.push((format!("{key}_transitions_por"), por.transitions as f64));
        json.push((format!("{key}_reduction"), factor));
        bench_progs.push((key, prog, uses_objects));
    }

    // Wall-clock lines for the spinlock entry: the reduction must also be
    // a real time win, not just a transition count.
    let mut g = c.benchmark_group("por_reduction");
    g.sample_size(10);
    for (key, prog, uses_objects) in &bench_progs {
        if *key != "spinlock_ttas4" && *key != "ticket_counter3" {
            continue;
        }
        let objs: &(dyn rc11_lang::machine::ObjectSemantics + Sync) =
            if *uses_objects { &AbstractObjects } else { &NoObjects };
        for (mode, opts) in [("full", base.clone()), ("por", por_opts.clone())] {
            g.bench_function(format!("{key}/{mode}"), |b| {
                b.iter(|| black_box(Engine::Sequential.explore(prog, objs, &opts).states))
            });
        }
    }
    g.finish();

    let borrowed: Vec<(&str, f64)> = json.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    bench::record_bench_json("por_reduction", &borrowed);
}

/// Ablation A6: thread-symmetry reduction. Each entry is decided with
/// `ExploreOptions::symmetry` off and on; the reduction collapses every
/// orbit of thread-permuted states to one representative, so the headline
/// metric is the *state reduction factor* (full / symmetric states),
/// recorded into `BENCH_explore.json`. The acceptance bar — checked here,
/// not just plotted — is ≥ 3× on the fully symmetric corpus entries
/// (`sym_cas3`, `sym_inc3`, `sym_fai4`). Orbit expansion must keep the
/// terminal count bit-identical, which every iteration asserts. The
/// gallery's two-thread `2RMW` rides along as report-only context.
fn bench_symmetry(c: &mut Criterion) {
    if !criterion::selected("symmetry_reduction") {
        return;
    }
    let corpus = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    // (json key, corpus file, must hit the ≥3x acceptance bar)
    let corpus_entries: [(&str, &str, bool); 4] = [
        ("sym_cas3", "sym_cas3.litmus", true),
        ("sym_inc3", "sym_inc3.litmus", true),
        ("sym_fai4", "sym_fai4.litmus", true),
        ("two_rmw", "2rmw.litmus", false),
    ];
    let progs: Vec<(&str, bool, rc11_lang::CfgProgram)> = corpus_entries
        .iter()
        .map(|&(key, file, must)| {
            let l = rc11_litmus::load_file(corpus.join(file))
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            (key, must, compile(&l.prog))
        })
        .collect();

    let base = ExploreOptions { record_traces: false, ..Default::default() };
    let sym_opts = ExploreOptions { symmetry: true, ..base.clone() };
    let mut json: Vec<(String, f64)> = Vec::new();
    for (key, must_reduce, prog) in &progs {
        let full = Engine::Sequential.explore(prog, &NoObjects, &base);
        let sym = Engine::Sequential.explore(prog, &NoObjects, &sym_opts);
        assert!(sym.states <= full.states, "{key}: symmetry must not add states");
        assert_eq!(
            sym.terminated.len(),
            full.terminated.len(),
            "{key}: orbit expansion must restore the terminal count"
        );
        let factor = full.states as f64 / sym.states.max(1) as f64;
        eprintln!(
            "[symmetry_reduction] {key}: {} → {} states ({factor:.2}x), {} terminals",
            full.states,
            sym.states,
            full.terminated.len()
        );
        if *must_reduce {
            assert!(
                factor >= 3.0,
                "{key}: symmetry reduction {factor:.2}x below the 3x acceptance bar \
                 ({} vs {} states)",
                sym.states,
                full.states
            );
        }
        json.push((format!("{key}_states_full"), full.states as f64));
        json.push((format!("{key}_states_sym"), sym.states as f64));
        json.push((format!("{key}_reduction"), factor));
    }

    // Wall-clock lines for the widest orbit (4! = 24 on sym_fai4) — plotted
    // context only: on entries this small the orbit bookkeeping dominates,
    // so the acceptance bar is the state count, not the time.
    let mut g = c.benchmark_group("symmetry_reduction");
    g.sample_size(10);
    for (key, _, prog) in &progs {
        if *key != "sym_fai4" {
            continue;
        }
        for (mode, opts) in [("full", base.clone()), ("sym", sym_opts.clone())] {
            g.bench_function(format!("{key}/{mode}"), |b| {
                b.iter(|| black_box(Engine::Sequential.explore(prog, &NoObjects, &opts).states))
            });
        }
    }
    g.finish();

    let borrowed: Vec<(&str, f64)> = json.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    bench::record_bench_json("symmetry_reduction", &borrowed);
}

/// Ablation A7: persistent-set DPOR on top of sleep sets. Each entry is
/// decided with sleep sets only (`ExploreOptions::por`) and with the
/// persistent-set layer added (`ExploreOptions::dpor`); persistent sets
/// postpone whole threads, collapsing the state-space *product* of
/// independent conflict components into a sum, so the headline metric is
/// the *transition reduction factor* versus the sleep-set baseline
/// (sleep / dpor transitions), recorded into `BENCH_explore.json`. The
/// acceptance bar — checked here, not just plotted — is ≥ 5× on the
/// multi-component corpus entries (`ttas2x2`, `mp_spin2x3`,
/// `deqspin2x2`). Every iteration asserts the A7 exactness contract:
/// terminal counts bit-identical, states and transitions never grow. The
/// single-component `ticket2` (pc-sensitivity only, factor 1×) and the
/// stack pipe `popspin2x2` ride along as report-only context, as does
/// `mp_spin4` from the A5 group.
fn bench_dpor(c: &mut Criterion) {
    if !criterion::selected("dpor_reduction") {
        return;
    }
    let corpus = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    // (json key, corpus file, must hit the ≥5x acceptance bar)
    let corpus_entries: [(&str, &str, bool); 6] = [
        ("ttas2x2", "ttas2x2.litmus", true),
        ("mp_spin2x3", "mp_spin2x3.litmus", true),
        ("deqspin2x2", "deqspin2x2.litmus", true),
        ("popspin2x2", "popspin2x2.litmus", false),
        ("ticket2", "ticket2.litmus", false),
        ("mp_spin4", "mp_spin4.litmus", false),
    ];
    let progs: Vec<(&str, bool, rc11_lang::CfgProgram, bool)> = corpus_entries
        .iter()
        .map(|&(key, file, must)| {
            let l = rc11_litmus::load_file(corpus.join(file))
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            let uses_objects = !l.prog.objects.is_empty();
            (key, must, compile(&l.prog), uses_objects)
        })
        .collect();

    let base = ExploreOptions { record_traces: false, ..Default::default() };
    let sleep_opts = ExploreOptions { por: true, ..base.clone() };
    let dpor_opts = ExploreOptions { dpor: true, ..base.clone() };
    let mut json: Vec<(String, f64)> = Vec::new();
    for (key, must_reduce, prog, uses_objects) in &progs {
        let objs: &(dyn rc11_lang::machine::ObjectSemantics + Sync) =
            if *uses_objects { &AbstractObjects } else { &NoObjects };
        let sleep = Engine::Sequential.explore(prog, objs, &sleep_opts);
        let dpor = Engine::Sequential.explore(prog, objs, &dpor_opts);
        assert!(dpor.states <= sleep.states, "{key}: DPOR must not add states");
        assert!(
            dpor.transitions <= sleep.transitions,
            "{key}: DPOR must not add transitions"
        );
        assert_eq!(
            dpor.terminated.len(),
            sleep.terminated.len(),
            "{key}: DPOR must not change the terminal count"
        );
        let factor = sleep.transitions as f64 / dpor.transitions.max(1) as f64;
        eprintln!(
            "[dpor_reduction] {key}: {} → {} states, {} → {} transitions ({factor:.2}x)",
            sleep.states, dpor.states, sleep.transitions, dpor.transitions
        );
        if *must_reduce {
            assert!(
                factor >= 5.0,
                "{key}: DPOR reduction {factor:.2}x below the 5x acceptance bar \
                 ({} vs {} transitions)",
                dpor.transitions,
                sleep.transitions
            );
        }
        json.push((format!("{key}_transitions_sleep"), sleep.transitions as f64));
        json.push((format!("{key}_transitions_dpor"), dpor.transitions as f64));
        json.push((format!("{key}_states_sleep"), sleep.states as f64));
        json.push((format!("{key}_states_dpor"), dpor.states as f64));
        json.push((format!("{key}_reduction"), factor));
    }

    // Wall-clock lines for the largest entry: the product→sum collapse
    // must also be a real time win, not just a transition count.
    let mut g = c.benchmark_group("dpor_reduction");
    g.sample_size(10);
    for (key, _, prog, uses_objects) in &progs {
        if *key != "ttas2x2" {
            continue;
        }
        let objs: &(dyn rc11_lang::machine::ObjectSemantics + Sync) =
            if *uses_objects { &AbstractObjects } else { &NoObjects };
        for (mode, opts) in [("sleep", sleep_opts.clone()), ("dpor", dpor_opts.clone())] {
            g.bench_function(format!("{key}/{mode}"), |b| {
                b.iter(|| black_box(Engine::Sequential.explore(prog, objs, &opts).states))
            });
        }
    }
    g.finish();

    let borrowed: Vec<(&str, f64)> = json.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    bench::record_bench_json("dpor_reduction", &borrowed);
}

/// The telemetry tax (DESIGN.md §9). The same ticket-lock exploration is
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
    let off_opts = ExploreOptions { record_traces: false, ..Default::default() };
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
    bench_por,
    bench_symmetry,
    bench_dpor,
    bench_telemetry_overhead
);
criterion_main!(benches);
