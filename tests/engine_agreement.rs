//! The cross-engine differential suite.
//!
//! The oracle is `rc11_check::reference`: a small breadth-first explorer
//! over materialised canonical configurations in a std `HashSet`, with no
//! fingerprints, reductions or threads. Under `Reduction::None` both
//! engines — whose one dedup mode keys visited states on zero-rebuild
//! canonical fingerprints — must agree with it **exactly** (states,
//! transitions, terminal and deadlock counts, violation sets) on every
//! litmus-gallery program and on the Figure-1/Figure-2 outline programs,
//! at 1, 2, 4 and 8 workers, and with each other on the proof-outline
//! reports. Under the default `Reduction::Full` they must keep the
//! oracle's terminal, deadlock and violation sets with counts never above
//! its own. Any divergence is a bug in an
//! engine (most likely a lost or double-counted state, or a fingerprint
//! hit confirmed wrongly), which is why CI also runs this suite under the
//! optimized release build the benches use.

use rc11::check::reference;
use rc11::figures;
use rc11::prelude::*;
use rc11_check::fxhash::FxHashMap;
use rc11_check::OgClass;
use rc11_litmus as litmus;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Violations keyed by (description, configuration): both engines call the
/// check exactly once per distinct state, so these are sets, and they must
/// match elementwise.
fn violation_set(report: &EngineReport) -> FxHashMap<(String, Config), usize> {
    let mut set = FxHashMap::default();
    for v in &report.violations {
        *set.entry((v.what.clone(), v.config.clone())).or_insert(0) += 1;
    }
    set
}

fn assert_reports_agree(name: &str, workers: usize, seq: &EngineReport, par: &EngineReport) {
    assert_eq!(par.states, seq.states, "{name} @ {workers} workers: states");
    assert_eq!(par.transitions, seq.transitions, "{name} @ {workers} workers: transitions");
    assert_eq!(
        par.terminated.len(),
        seq.terminated.len(),
        "{name} @ {workers} workers: terminated"
    );
    assert_eq!(
        par.deadlocked.len(),
        seq.deadlocked.len(),
        "{name} @ {workers} workers: deadlocked"
    );
    assert_eq!(par.truncated(), seq.truncated(), "{name} @ {workers} workers: truncated");
    assert_eq!(
        violation_set(par),
        violation_set(seq),
        "{name} @ {workers} workers: violation sets"
    );
}

/// Every litmus-gallery program: full report parity at every worker count
/// (unreduced, where counts are deterministic), with a violation-producing
/// check (flag every terminal configuration) so violation-set parity is
/// exercised on every program, not just the ones with interesting
/// invariants.
#[test]
fn litmus_gallery_reports_agree_across_engines() {
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let opts =
            ExploreOptions { record_traces: false, reduce: Reduction::None, ..Default::default() };
        let check = |cfg: &Config, out: &mut Vec<String>| {
            if cfg.terminated(&prog) {
                out.push("terminal".to_string());
            }
        };
        let seq = Engine::Sequential.explore_with(&prog, objs, &opts, check);
        assert!(!seq.terminated.is_empty(), "{}: gallery programs terminate", l.name);
        assert_eq!(
            seq.violations.len(),
            seq.terminated.len(),
            "{}: one flag per terminal state",
            l.name
        );
        for workers in WORKERS {
            let par = Engine::Parallel { workers }.explore_with(&prog, objs, &opts, check);
            assert_reports_agree(&l.name, workers, &seq, &par);
        }
    }
}

/// The dedup differential: on the whole gallery, the engines'
/// fingerprint dedup must reproduce the reference explorer's
/// materialised-canonical dedup — states, transitions, terminal and
/// deadlock counts and violation sets — under the sequential engine and
/// under the parallel engine at every worker count, unreduced. This is the soundness
/// gate for ablation A4: keying the visited structures on fingerprints
/// must not change a single verdict.
#[test]
fn fingerprint_and_materialised_dedup_reports_agree() {
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let check = |cfg: &Config, out: &mut Vec<String>| {
            if cfg.terminated(&prog) {
                out.push("terminal".to_string());
            }
        };
        let opts =
            ExploreOptions { record_traces: false, reduce: Reduction::None, ..Default::default() };
        let oracle = reference::explore(&prog, objs, usize::MAX, check);

        let seq = Engine::Sequential.explore_with(&prog, objs, &opts, check);
        assert_reports_agree(&format!("{} [seq]", l.name), 1, &oracle, &seq);
        for workers in WORKERS {
            let par = Engine::Parallel { workers }.explore_with(&prog, objs, &opts, check);
            assert_reports_agree(&format!("{} [par]", l.name), workers, &oracle, &par);
        }
    }
}

/// The same differential for the outline checker: on a valid outline and
/// on one with violations, both engines' outline reports must count the
/// reference explorer's states, transitions, terminals and deadlocks —
/// under the default `Reduction::Full`, because an edge query runs no
/// reduction.
#[test]
fn fingerprint_and_materialised_outline_reports_agree() {
    for (name, f) in [("fig3-on-fig2", figures::fig2()), ("fig3-on-fig1", figures::fig1())] {
        let outline = figures::fig3_outline(&f);
        let prog = compile(&f.prog);
        let oracle = reference::explore(&prog, &AbstractObjects, usize::MAX, |_, _| {});
        let opts = ExploreOptions::default();
        let engines = std::iter::once(Engine::Sequential)
            .chain(WORKERS.map(|workers| Engine::Parallel { workers }));
        for engine in engines {
            let r = check_outline_with(&prog, &AbstractObjects, &outline, &opts, &engine);
            let tag = format!("{name} ({engine:?})");
            assert_eq!(r.states, oracle.states, "{tag}: states");
            assert_eq!(r.transitions, oracle.transitions, "{tag}: transitions");
            assert_eq!(r.terminated, oracle.terminated.len(), "{tag}: terminated");
            assert_eq!(r.deadlocked, oracle.deadlocked.len(), "{tag}: deadlocked");
            assert!(!r.truncated(), "{tag}: truncated");
        }
    }
}

/// Every litmus verdict (observed-outcome set) matches between engines,
/// through the gallery's own engine-parametric runner. Under the default
/// `Reduction::Full` the parallel state count depends on arrival order,
/// so it is only bounded by the unreduced count.
#[test]
fn litmus_gallery_verdicts_agree_across_engines() {
    for l in litmus::all() {
        let seq = litmus::run_with(&l, &Engine::Sequential);
        assert!(seq.pass, "{}: sequential verdict must already be exact", l.name);
        let oracle =
            reference::explore(&compile(&l.prog), litmus::objects_for(&l), usize::MAX, |_, _| {});
        for workers in WORKERS {
            let par = litmus::run_with(&l, &Engine::Parallel { workers });
            assert_eq!(
                par.observed, seq.observed,
                "{} @ {workers} workers: outcome sets diverge",
                l.name
            );
            assert!(par.states <= oracle.states, "{} @ {workers} workers: states", l.name);
            assert!(par.pass, "{} @ {workers} workers: verdict", l.name);
        }
    }
}

/// Outline reports keyed by (annotation, configuration) → strongest class.
/// The strongest classification is a max over all incoming edges, so it is
/// deterministic even though the parallel engine visits edges in arbitrary
/// order; only `mover` tie-breaks may differ.
fn outline_violation_map(
    report: &OutlineReport,
) -> FxHashMap<(rc11::check::OutlineKind, Config), OgClass> {
    let mut map = FxHashMap::default();
    for v in &report.violations {
        let prev = map.insert((v.kind.clone(), v.config.clone()), v.class);
        assert!(prev.is_none(), "duplicate (kind, config) violation entry");
    }
    map
}

fn assert_outline_reports_agree(
    name: &str,
    workers: usize,
    seq: &OutlineReport,
    par: &OutlineReport,
) {
    assert_eq!(par.states, seq.states, "{name} @ {workers} workers: states");
    assert_eq!(par.transitions, seq.transitions, "{name} @ {workers} workers: transitions");
    assert_eq!(par.checks, seq.checks, "{name} @ {workers} workers: assertion evaluations");
    assert_eq!(par.terminated, seq.terminated, "{name} @ {workers} workers: terminated");
    assert_eq!(par.deadlocked, seq.deadlocked, "{name} @ {workers} workers: deadlocked");
    assert_eq!(par.truncated(), seq.truncated(), "{name} @ {workers} workers: truncated");
    assert_eq!(
        outline_violation_map(par),
        outline_violation_map(seq),
        "{name} @ {workers} workers: violation maps"
    );
}

fn check_outline_agreement(name: &str, prog: &CfgProgram, outline: &rc11::assert::ProofOutline) {
    let opts = ExploreOptions::default();
    let seq = check_outline_with(prog, &AbstractObjects, outline, &opts, &Engine::Sequential);
    for workers in WORKERS {
        let par =
            check_outline_with(prog, &AbstractObjects, outline, &opts, &Engine::Parallel { workers });
        assert_outline_reports_agree(name, workers, &seq, &par);
    }
}

/// The valid Figure-3 outline over Figure 2's program: both engines find
/// zero violations and identical statistics.
#[test]
fn fig3_outline_on_fig2_agrees_across_engines() {
    let f = figures::fig2();
    let outline = figures::fig3_outline(&f);
    let prog = compile(&f.prog);
    let seq = check_outline_with(
        &prog,
        &AbstractObjects,
        &outline,
        &ExploreOptions::default(),
        &Engine::Sequential,
    );
    assert!(seq.valid(), "Figure-3 outline is valid sequentially");
    check_outline_agreement("fig3-on-fig2", &prog, &outline);
}

/// The Figure-3 outline over the *unsynchronised* Figure-1 program: both
/// engines find the same non-empty violation map, class by class.
#[test]
fn fig3_outline_on_fig1_violations_agree_across_engines() {
    let f = figures::fig1();
    let outline = figures::fig3_outline(&f);
    let prog = compile(&f.prog);
    let seq = check_outline_with(
        &prog,
        &AbstractObjects,
        &outline,
        &ExploreOptions::default(),
        &Engine::Sequential,
    );
    assert!(!seq.violations.is_empty(), "relaxed MP must violate the Figure-3 outline");
    check_outline_agreement("fig3-on-fig1", &prog, &outline);
}

/// The full Figure-7 outline (Lemma 4): valid under both engines with
/// identical statistics.
#[test]
fn fig7_outline_agrees_across_engines() {
    let f = figures::fig7();
    let outline = figures::fig7_outline(&f);
    let prog = compile(&f.prog);
    let seq = check_outline_with(
        &prog,
        &AbstractObjects,
        &outline,
        &ExploreOptions::default(),
        &Engine::Sequential,
    );
    assert!(seq.valid(), "Figure-7 outline is valid sequentially");
    check_outline_agreement("fig7", &prog, &outline);
}

/// A deliberately interference-unsound annotation on Figure 7: both
/// engines agree on the violation map, including the Interference
/// classifications.
#[test]
fn fig7_naive_annotation_violations_agree_across_engines() {
    use rc11::assert::ProofOutline;
    let f = figures::fig7();
    let prog = compile(&f.prog);
    let outline = ProofOutline::new("naive", 2).pre(1, 1, dobs(1, f.d1, 0));
    let seq = check_outline_with(
        &prog,
        &AbstractObjects,
        &outline,
        &ExploreOptions::default(),
        &Engine::Sequential,
    );
    assert!(
        seq.violations.iter().any(|v| v.class == OgClass::Interference),
        "the naive annotation must fail by interference"
    );
    check_outline_agreement("fig7-naive", &prog, &outline);
}

/// Terminal configurations as a multiset (both engines push canonical
/// forms; order is engine-dependent).
fn config_multiset(cfgs: &[Config]) -> FxHashMap<Config, usize> {
    let mut set = FxHashMap::default();
    for c in cfgs {
        *set.entry(c.clone()).or_insert(0) += 1;
    }
    set
}

/// Ablation A5: sleep-set partial-order reduction prunes **transitions
/// only**. A state query under `Reduction::Full` (sleep sets + symmetry)
/// must keep the terminal and deadlock multisets and the violation set
/// bit-identical to the unreduced reference search, under both engines,
/// at every worker count — and the state count too, on every program
/// without symmetric threads. The transition count must never grow, and
/// must strictly shrink somewhere across the gallery (the reduction is
/// real, not vacuous).
#[test]
fn por_prunes_transitions_but_preserves_reports() {
    let mut full_total = 0usize;
    let mut por_total = 0usize;
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let check = |cfg: &Config, out: &mut Vec<String>| {
            if cfg.terminated(&prog) {
                out.push("terminal".to_string());
            }
        };
        let oracle = reference::explore(&prog, objs, usize::MAX, check);
        full_total += oracle.transitions;
        let symmetric = !rc11::analyze::thread_symmetry(&prog).is_trivial();
        let states_kept = |r: &EngineReport| {
            if symmetric { r.states <= oracle.states } else { r.states == oracle.states }
        };

        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        let seq = Engine::Sequential.explore_with(&prog, objs, &opts, check);
        assert!(states_kept(&seq), "{}: POR lost states", l.name);
        assert_eq!(
            config_multiset(&seq.terminated),
            config_multiset(&oracle.terminated),
            "{}: POR changed the terminal set",
            l.name
        );
        assert_eq!(
            config_multiset(&seq.deadlocked),
            config_multiset(&oracle.deadlocked),
            "{}: POR changed the deadlock set",
            l.name
        );
        assert_eq!(
            violation_set(&seq),
            violation_set(&oracle),
            "{}: POR changed the violation set",
            l.name
        );
        assert!(
            seq.transitions <= oracle.transitions,
            "{}: POR generated more transitions ({} > {})",
            l.name,
            seq.transitions,
            oracle.transitions
        );
        assert!(!seq.truncated(), "{}", l.name);
        por_total += seq.transitions;

        for workers in WORKERS {
            let par = Engine::Parallel { workers }.explore_with(&prog, objs, &opts, check);
            assert!(states_kept(&par), "{} @ {workers} workers: POR lost states", l.name);
            assert_eq!(
                config_multiset(&par.terminated),
                config_multiset(&oracle.terminated),
                "{} @ {workers} workers: terminal set",
                l.name
            );
            assert_eq!(
                config_multiset(&par.deadlocked),
                config_multiset(&oracle.deadlocked),
                "{} @ {workers} workers: deadlock set",
                l.name
            );
            assert_eq!(
                violation_set(&par),
                violation_set(&oracle),
                "{} @ {workers} workers: violation set",
                l.name
            );
            assert!(
                par.transitions <= oracle.transitions,
                "{} @ {workers} workers: more transitions under POR",
                l.name
            );
            assert!(!par.truncated(), "{} @ {workers} workers", l.name);
        }
    }
    assert!(
        por_total < full_total,
        "POR must strictly reduce transitions somewhere across the gallery \
         ({por_total} vs {full_total})"
    );
}

/// Ablation A6: thread-symmetry reduction explores one representative per
/// orbit, so the state count may only shrink — while the orbit expansion
/// of terminals, deadlocks and check callbacks must keep the terminal and
/// deadlock multisets and the violation set bit-identical to the
/// unreduced reference search, under both engines, at every worker
/// count (a state query under `Reduction::Full`, composed with sleep
/// sets). The gallery's `2RMW` entry
/// (two threads FAI-ing one location, identical modulo register renaming)
/// must shed states strictly — the reduction is real, not vacuous.
#[test]
fn symmetry_preserves_reports_and_sheds_states() {
    let mut reduced_somewhere = false;
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let check = |cfg: &Config, out: &mut Vec<String>| {
            if cfg.terminated(&prog) {
                out.push("terminal".to_string());
            }
        };
        let base = ExploreOptions { record_traces: false, ..Default::default() };
        let oracle = reference::explore(&prog, objs, usize::MAX, check);

        let tag = |workers: usize| format!("{} @ {workers} workers", l.name);
        let seq = Engine::Sequential.explore_with(&prog, objs, &base, check);
        if seq.states < oracle.states {
            reduced_somewhere = true;
        }
        let assert_sym = |name: &str, r: &EngineReport| {
            assert!(
                r.states <= oracle.states,
                "{name}: symmetry grew the state count ({} > {})",
                r.states,
                oracle.states
            );
            assert!(
                r.transitions <= oracle.transitions,
                "{name}: symmetry generated more transitions"
            );
            assert_eq!(
                config_multiset(&r.terminated),
                config_multiset(&oracle.terminated),
                "{name}: orbit expansion changed the terminal multiset"
            );
            assert_eq!(
                config_multiset(&r.deadlocked),
                config_multiset(&oracle.deadlocked),
                "{name}: orbit expansion changed the deadlock multiset"
            );
            assert_eq!(
                violation_set(r),
                violation_set(&oracle),
                "{name}: symmetry changed the violation set"
            );
            assert!(!r.truncated(), "{name}: truncated");
        };
        assert_sym(&tag(1), &seq);
        for workers in WORKERS {
            let par = Engine::Parallel { workers }.explore_with(&prog, objs, &base, check);
            assert_sym(&tag(workers), &par);
        }
        if l.name == "2RMW" {
            let sym = Engine::Sequential.explore_with(&prog, objs, &base, |_, _| {});
            assert!(
                sym.states < oracle.states,
                "2RMW is fully symmetric; reduction must be real ({} vs {})",
                sym.states,
                oracle.states
            );
        }
    }
    assert!(reduced_somewhere, "symmetry must shed states somewhere across the gallery");
}

/// Ablation A7: an outcome query (`explore`) under `Reduction::Full` adds
/// persistent sets, which postpone whole threads, so both the state and
/// the transition count may shrink — while the terminal and deadlock
/// multisets must stay bit-identical to the unreduced reference search
/// (every terminal and deadlock is still visited, and visited exactly
/// once), under both engines, at every worker count, composed with
/// symmetry. Strict shedding is asserted corpus-side
/// (`dpor_corpus_entries_shed_at_least_5x_transitions`): the gallery's
/// programs are mostly single-component, where persistent sets
/// legitimately degenerate to the full thread set.
#[test]
fn dpor_preserves_reports_and_sheds_work() {
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        let oracle = reference::explore(&prog, objs, usize::MAX, |_, _| {});
        let assert_dpor = |name: &str, r: &EngineReport| {
            assert!(
                r.states <= oracle.states,
                "{name}: DPOR grew the state count ({} > {})",
                r.states,
                oracle.states
            );
            assert!(r.transitions <= oracle.transitions, "{name}: DPOR generated more transitions");
            assert_eq!(
                config_multiset(&r.terminated),
                config_multiset(&oracle.terminated),
                "{name}: DPOR changed the terminal multiset"
            );
            assert_eq!(
                config_multiset(&r.deadlocked),
                config_multiset(&oracle.deadlocked),
                "{name}: DPOR changed the deadlock multiset"
            );
            assert!(r.violations.is_empty(), "{name}: an outcome query has no callback");
            assert!(!r.truncated(), "{name}: truncated");
        };
        assert_dpor(&format!("{} [seq]", l.name), &Engine::Sequential.explore(&prog, objs, &opts));
        for workers in WORKERS {
            let par = Engine::Parallel { workers }.explore(&prog, objs, &opts);
            assert_dpor(&format!("{} @ {workers} workers", l.name), &par);
        }
    }
}

/// A symmetric lock client under `Reduction::Full`: a held lock records
/// its owner's thread id, so folding the two clients' orbit must rename
/// the owner with the thread (otherwise the representative's holder could
/// never release, and the walk would report deadlocks the program does
/// not have). Both engines must reproduce the reference's terminal,
/// deadlock and violation sets, and both engines' traces — for
/// representatives and orbit members alike — replay step by step.
#[test]
fn full_violation_traces_replay_on_a_symmetric_lock_client() {
    let mut p = ProgramBuilder::new("lock2");
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    for _ in 0..2 {
        let mut tb = ThreadBuilder::new();
        let r = tb.reg("r");
        p.add_thread(tb, seq([acquire(l), rd(r, x), wr(x, add(r, 1)), release(l)]));
    }
    let prog = compile(&p.build());
    assert!(!rc11::analyze::thread_symmetry(&prog).is_trivial(), "the clients are symmetric");
    let check = |cfg: &Config, out: &mut Vec<String>| {
        if cfg.terminated(&prog) {
            out.push("terminal".to_string());
        }
    };
    let oracle = reference::explore(&prog, &AbstractObjects, usize::MAX, check);
    let opts = ExploreOptions::default();
    for engine in std::iter::once(Engine::Sequential)
        .chain(WORKERS.map(|workers| Engine::Parallel { workers }))
    {
        for report in [
            engine.explore(&prog, &AbstractObjects, &opts),
            engine.explore_with(&prog, &AbstractObjects, &opts, check),
        ] {
            assert!(report.deadlocked.is_empty(), "{engine:?}: the lock never deadlocks");
            assert_eq!(
                config_multiset(&report.terminated),
                config_multiset(&oracle.terminated),
                "{engine:?}: terminal set"
            );
            assert!(report.states < oracle.states, "{engine:?}: the orbit folds");
        }
        let report = engine.explore_with(&prog, &AbstractObjects, &opts, check);
        assert_eq!(violation_set(&report), violation_set(&oracle), "{engine:?}: violations");
        for v in &report.violations {
            let trace = v.trace.as_ref().expect("traces recorded");
            let mut cur = Config::initial(&prog).canonical();
            for (tid, next) in trace {
                let succs =
                    rc11::lang::machine::successors(&prog, &AbstractObjects, &cur, opts.step);
                assert!(
                    succs.iter().any(|(t, s)| t == tid && s.canonical() == *next),
                    "{engine:?}: trace step by {tid:?} is not a real transition"
                );
                cur = next.clone();
            }
            assert_eq!(cur, v.config, "trace must end at the violation");
        }
    }
}

/// Symmetry-reduced violation traces of `engine` are exactly replayable —
/// for the orbit representative *and* for every expanded orbit member: the
/// per-edge permutations compose into a concrete interleaving of the
/// original program (the automorphisms fix the initial state). Both
/// engines store each edge's permutation and share one reconstruction
/// routine.
fn assert_symmetry_traces_replay(engine: Engine) {
    // 2RMW: fully symmetric, so both the representative and a nontrivial
    // orbit member produce violations; SB+ra: trivial symmetry (the spec
    // is empty), pinning the identity path.
    for l in [litmus::two_rmw(), litmus::sb_ra()] {
        let prog = compile(&l.prog);
        let opts = ExploreOptions::default();
        let check = |cfg: &Config, out: &mut Vec<String>| {
            if cfg.terminated(&prog) {
                out.push("terminal".to_string());
            }
        };
        let report = engine.explore_with(&prog, &NoObjects, &opts, check);
        assert!(!report.violations.is_empty(), "{}: terminals exist", l.name);
        assert_eq!(
            report.violations.len(),
            l.expected.len(),
            "{}: orbit expansion must flag every terminal exactly once",
            l.name
        );
        for v in &report.violations {
            let trace = v.trace.as_ref().expect("traces recorded");
            let mut cur = Config::initial(&prog).canonical();
            for (tid, next) in trace {
                let succs =
                    rc11::lang::machine::successors(&prog, &NoObjects, &cur, opts.step);
                assert!(
                    succs.iter().any(|(t, s)| t == tid && s.canonical() == *next),
                    "{}: symmetry trace step by {tid:?} is not a real transition",
                    l.name
                );
                cur = next.clone();
            }
            assert_eq!(
                cur, v.config,
                "{}: trace must end at the violation",
                l.name
            );
        }
    }
}

#[test]
fn symmetry_violation_traces_replay_sequentially() {
    assert_symmetry_traces_replay(Engine::Sequential);
}

#[test]
fn symmetry_violation_traces_replay_in_parallel() {
    for workers in WORKERS {
        assert_symmetry_traces_replay(Engine::Parallel { workers });
    }
}

/// Satellite of A6: beyond 64 threads the sleep masks cannot represent
/// the thread set, so `Reduction::Full` must *fall back* to search without
/// sleep or persistent sets (and say so via `EngineReport::por_fallback`)
/// instead of asserting. The 64
/// empty threads compile to zero instructions, so the state space is the
/// two real threads' — the fallback is observable without a blow-up.
#[test]
fn por_falls_back_beyond_64_threads() {
    let mut p = ProgramBuilder::new("Wide");
    let x = p.client_var("x", 0);
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(x, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r = t2.reg("r");
    p.add_thread(t2, seq([rd(r, x)]));
    for _ in 0..64 {
        p.add_thread(ThreadBuilder::new(), seq([]));
    }
    let prog = compile(&p.build());
    assert!(prog.n_threads() > 64);

    let base = ExploreOptions { record_traces: false, ..Default::default() };
    let none = ExploreOptions { reduce: Reduction::None, ..base.clone() };
    let full = Engine::Sequential.explore(&prog, &NoObjects, &none);
    assert!(!full.por_fallback(), "fallback only reports when POR was due");
    for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
        for report in [
            engine.explore(&prog, &NoObjects, &base),
            engine.explore_with(&prog, &NoObjects, &base, |_, _| {}),
        ] {
            assert!(report.por_fallback(), "{engine:?}: must report the fallback");
            assert_eq!(report.states, full.states, "{engine:?}: fallback is unreduced");
            assert_eq!(report.transitions, full.transitions, "{engine:?}: fallback is unreduced");
            assert_eq!(report.terminated.len(), full.terminated.len(), "{engine:?}: terminals");
        }
    }
}

/// Violations of a state query under `Reduction::Full` (sleep sets) still
/// carry replayable traces: every step is a real transition and the trace
/// ends at the violating configuration (paths may differ from the
/// unreduced search — they are valid, not canonical).
#[test]
fn por_violation_traces_replay() {
    let l = litmus::sb_ra();
    let prog = compile(&l.prog);
    let opts = ExploreOptions::default();
    let check = |cfg: &Config, out: &mut Vec<String>| {
        if cfg.terminated(&prog)
            && l.observe.iter().all(|&(t, r)| cfg.reg(t, r) == rc11::core::Val::Int(0))
        {
            out.push("both zero".to_string());
        }
    };
    for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
        let report = engine.explore_with(&prog, &NoObjects, &opts, check);
        assert!(!report.violations.is_empty(), "{engine:?}: SB weak outcome reachable");
        for v in &report.violations {
            let trace = v.trace.as_ref().expect("traces recorded");
            let mut cur = Config::initial(&prog).canonical();
            for (tid, next) in trace {
                let succs = rc11::lang::machine::successors(&prog, &NoObjects, &cur, opts.step);
                assert!(
                    succs.iter().any(|(t, s)| t == tid && s.canonical() == *next),
                    "{engine:?}: POR trace step by {tid:?} is not a real transition"
                );
                cur = next.clone();
            }
            assert_eq!(cur, v.config, "{engine:?}: trace must end at the violation");
        }
    }
}

/// Cap parity: when `max_states` cuts a run short, both engines must
/// return the same verdict — `truncated == true` and `states ==
/// max_states` — even though the parallel engine's cap check is racy (its
/// report reconciles any overshoot to the sequential engine's verdict).
/// Transition and terminal counts legitimately differ under truncation
/// (the engines drop different states), so only the verdict is compared.
/// Unreduced, so every engine reaches the same total.
#[test]
fn truncated_runs_agree_on_the_verdict_across_engines() {
    let base =
        ExploreOptions { record_traces: false, reduce: Reduction::None, ..Default::default() };
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let full = Engine::Sequential.explore(&prog, objs, &base);
        // A cap strictly inside the reachable space forces truncation.
        for cap in [1usize, full.states / 2, full.states - 1] {
            let cap = cap.max(1);
            if cap >= full.states {
                continue;
            }
            let opts = ExploreOptions { max_states: cap, ..base.clone() };
            let seq = Engine::Sequential.explore(&prog, objs, &opts);
            assert!(seq.truncated(), "{} cap {cap}: sequential must truncate", l.name);
            assert_eq!(seq.states, cap, "{} cap {cap}: sequential states", l.name);
            for workers in WORKERS {
                let par = Engine::Parallel { workers }.explore(&prog, objs, &opts);
                assert!(par.truncated(), "{} cap {cap} @ {workers} workers: truncated", l.name);
                assert_eq!(par.states, cap, "{} cap {cap} @ {workers} workers: states", l.name);
            }
        }
    }
}

/// Trace parity in kind: with traces on, both engines attach a trace to
/// every violation and each trace replays step by step through
/// `successors`. Both engines record the *first* parent that discovered a
/// state — a valid path from the initial configuration, not a shortest
/// one — so validity and endpoints are compared, not lengths. Unreduced;
/// the reduced traces are `por_violation_traces_replay`'s.
#[test]
fn violation_traces_replay_under_both_engines() {
    let l = litmus::sb_ra();
    let prog = compile(&l.prog);
    let opts = ExploreOptions { reduce: Reduction::None, ..Default::default() };
    let check = |cfg: &Config, out: &mut Vec<String>| {
        if cfg.terminated(&prog)
            && l.observe.iter().all(|&(t, r)| cfg.reg(t, r) == rc11::core::Val::Int(0))
        {
            out.push("both zero".to_string());
        }
    };
    for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
        let report = engine.explore_with(&prog, &NoObjects, &opts, check);
        assert!(!report.violations.is_empty(), "{engine:?}: SB weak outcome reachable");
        for v in &report.violations {
            let trace = v.trace.as_ref().expect("traces recorded");
            let mut cur = Config::initial(&prog).canonical();
            for (tid, next) in trace {
                let succs = rc11::lang::machine::successors(&prog, &NoObjects, &cur, opts.step);
                assert!(
                    succs.iter().any(|(t, s)| t == tid && s.canonical() == *next),
                    "{engine:?}: trace step by {tid:?} is not a real transition"
                );
                cur = next.clone();
            }
            assert_eq!(cur, v.config, "{engine:?}: trace must end at the violation");
        }
    }
}
