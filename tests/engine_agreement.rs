//! The differential suite: the one exploration walk against the oracle.
//!
//! The oracle is `rc11_check::reference`: a small breadth-first explorer
//! over materialised canonical configurations in a std `HashSet`, with no
//! fingerprints, reductions or threads. Under `Reduction::None` the walk
//! — whose one dedup mode keys visited states on fingerprints of their
//! canonical encodings — must agree with it **exactly** (states, transitions,
//! terminal and deadlock counts, violation sets) on every litmus-gallery
//! program and on the Figure-1/Figure-2 outline programs, and the
//! proof-outline checker must report exactly the (annotation,
//! configuration) failures the oracle's states exhibit. Under the default
//! `Reduction::Full` the walk must keep the oracle's terminal, deadlock
//! and violation sets with counts never above its own. Every violation
//! trace the walk reports must replay step by step through `successors`.
//! Any divergence is a bug in the walk (most likely a lost or
//! double-counted state, or a fingerprint hit confirmed wrongly), which is
//! why CI also runs this suite under the optimized release build the
//! benches use.

use rc11::assert::ProofOutline;
use rc11::check::{reference, OutlineKind, Violation};
use rc11::figures;
use rc11::lang::machine::{successors, ObjectSemantics, StepOptions};
use rc11::prelude::*;
use rc11_check::fxhash::FxHashMap;
use rc11_check::OgClass;
use rc11_litmus as litmus;
use std::collections::HashSet;

/// Violations keyed by (description, configuration): the walk and the
/// oracle call the check exactly once per distinct state, so these are
/// sets, and they must match elementwise.
fn violation_set(report: &EngineReport) -> FxHashMap<(String, Config), usize> {
    let mut set = FxHashMap::default();
    for v in &report.violations {
        *set.entry((v.what.clone(), v.config.clone())).or_insert(0) += 1;
    }
    set
}

/// Terminal configurations as a multiset (the walk and the oracle push
/// canonical forms in different orders).
fn config_multiset(cfgs: &[Config]) -> FxHashMap<Config, usize> {
    let mut set = FxHashMap::default();
    for c in cfgs {
        *set.entry(c.clone()).or_insert(0) += 1;
    }
    set
}

/// Flag every terminal configuration, so violation-set parity is
/// exercised on every program, not just the ones with interesting
/// invariants.
fn flag_terminals(prog: &CfgProgram) -> impl Fn(&Config, &mut Vec<String>) + '_ {
    move |cfg, out| {
        if cfg.terminated(prog) {
            out.push("terminal".to_string());
        }
    }
}

/// Replay `v`'s trace: every step must be a transition the semantics
/// really offers from the previous configuration, starting at the initial
/// configuration and ending at the violating one.
fn assert_trace_replays(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    step: StepOptions,
    v: &Violation,
) {
    let trace = v.trace.as_ref().expect("violation must carry a trace");
    let mut cur = Config::initial(prog).canonical();
    for (i, (tid, next)) in trace.iter().enumerate() {
        let succs = successors(prog, objs, &cur, step);
        assert!(
            succs.iter().any(|(t, s)| t == tid && s.canonical() == *next),
            "{}: step {i} by {tid:?} is not a real transition of the program",
            v.what
        );
        cur = next.clone();
    }
    assert_eq!(cur, v.config, "{}: trace must end at the violating configuration", v.what);
}

fn assert_reports_agree(name: &str, oracle: &EngineReport, got: &EngineReport) {
    assert_eq!(got.states, oracle.states, "{name}: states");
    assert_eq!(got.transitions, oracle.transitions, "{name}: transitions");
    assert_eq!(got.terminated.len(), oracle.terminated.len(), "{name}: terminated");
    assert_eq!(got.deadlocked.len(), oracle.deadlocked.len(), "{name}: deadlocked");
    assert_eq!(got.truncated(), oracle.truncated(), "{name}: truncated");
    assert_eq!(violation_set(got), violation_set(oracle), "{name}: violation sets");
}

/// The dedup differential: on the whole gallery, the walk's fingerprint
/// dedup must reproduce the reference explorer's materialised-canonical
/// dedup — states, transitions, terminal and deadlock counts and
/// violation sets — unreduced, with traces recorded (and replayable).
/// This is the soundness gate for ablation A4: keying the visited
/// structures on fingerprints must not change a single verdict.
#[test]
fn fingerprint_and_materialised_dedup_reports_agree() {
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let check = flag_terminals(&prog);
        let opts = ExploreOptions { reduce: Reduction::None, ..Default::default() };
        let oracle = reference::explore(&prog, objs, usize::MAX, &check);
        let walk = Engine::Sequential.explore_with(&prog, objs, &opts, &check);
        assert!(!walk.terminated.is_empty(), "{}: gallery programs terminate", l.name);
        assert_eq!(walk.violations.len(), walk.terminated.len(), "{}: one flag each", l.name);
        assert_reports_agree(&l.name, &oracle, &walk);
        for v in &walk.violations {
            assert_trace_replays(&prog, objs, opts.step, v);
        }
    }
}

/// Every litmus verdict (observed-outcome set) of the walk, through the
/// gallery's own runner, equals the reference oracle's, with the reduced
/// state count bounded by the oracle's.
#[test]
fn litmus_gallery_verdicts_agree_across_engines() {
    for l in litmus::all() {
        let res = litmus::run_with(&l, &Engine::Sequential);
        assert!(res.pass, "{}: the walk's verdict must be exact", l.name);
        let oracle =
            reference::explore(&compile(&l.prog), litmus::objects_for(&l), usize::MAX, |_, _| {});
        let observed: std::collections::BTreeSet<Vec<Val>> = oracle
            .terminated
            .iter()
            .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
            .collect();
        assert_eq!(res.observed, observed, "{}: outcome sets diverge", l.name);
        assert!(res.states <= oracle.states, "{}: states", l.name);
    }
}

/// The reference explorer as an outline oracle: the (annotation,
/// configuration) pairs where an annotation fails, over every reachable
/// canonical configuration — exactly the keys the outline checker must
/// report (every reachable configuration but the initial one has an
/// incoming edge, and the initial one is classified on its own).
fn reference_outline(
    prog: &CfgProgram,
    outline: &ProofOutline,
) -> (EngineReport, HashSet<(OutlineKind, Config)>) {
    let mut failures = HashSet::new();
    let oracle = reference::explore(prog, &AbstractObjects, usize::MAX, |cfg, _| {
        let ctx = EvalCtx { prog, cfg };
        if !outline.invariant.eval(ctx) {
            failures.insert((OutlineKind::Invariant, cfg.clone()));
        }
        for (t, anns) in outline.pre.iter().enumerate() {
            for (&k, p) in anns {
                if prog.threads[t].labels.get(&k) == Some(&cfg.pc(t)) && !p.eval(ctx) {
                    failures.insert((OutlineKind::Pre(t, k), cfg.clone()));
                }
            }
        }
        if cfg.terminated(prog) && !outline.post.eval(ctx) {
            failures.insert((OutlineKind::Post, cfg.clone()));
        }
    });
    (oracle, failures)
}

/// The outline checker's report against the reference outline oracle:
/// the same states, transitions, terminals and deadlocks (an edge query
/// runs no reduction, even under the default `Reduction::Full`), and
/// exactly the oracle's (annotation, configuration) failures, each once.
fn check_outline_agreement(name: &str, prog: &CfgProgram, outline: &ProofOutline) -> OutlineReport {
    let r = check_outline(prog, &AbstractObjects, outline, &ExploreOptions::default());
    let (oracle, failures) = reference_outline(prog, outline);
    assert_eq!(r.states, oracle.states, "{name}: states");
    assert_eq!(r.transitions, oracle.transitions, "{name}: transitions");
    assert_eq!(r.terminated, oracle.terminated.len(), "{name}: terminated");
    assert_eq!(r.deadlocked, oracle.deadlocked.len(), "{name}: deadlocked");
    assert!(!r.truncated(), "{name}: truncated");
    let got: HashSet<(OutlineKind, Config)> =
        r.violations.iter().map(|v| (v.kind.clone(), v.config.clone())).collect();
    assert_eq!(got.len(), r.violations.len(), "{name}: duplicate (kind, config) entries");
    assert_eq!(got, failures, "{name}: violation keys");
    r
}

/// The same differential for the outline checker on a valid outline and
/// on one with violations.
#[test]
fn fingerprint_and_materialised_outline_reports_agree() {
    for (name, f) in [("fig3-on-fig2", figures::fig2()), ("fig3-on-fig1", figures::fig1())] {
        let outline = figures::fig3_outline(&f);
        check_outline_agreement(name, &compile(&f.prog), &outline);
    }
}

/// The valid Figure-3 outline over Figure 2's program: zero violations,
/// the oracle's statistics.
#[test]
fn fig3_outline_on_fig2_agrees_across_engines() {
    let f = figures::fig2();
    let r = check_outline_agreement("fig3-on-fig2", &compile(&f.prog), &figures::fig3_outline(&f));
    assert!(r.valid(), "Figure-3 outline is valid");
}

/// The Figure-3 outline over the *unsynchronised* Figure-1 program: the
/// oracle's non-empty violation set.
#[test]
fn fig3_outline_on_fig1_violations_agree_across_engines() {
    let f = figures::fig1();
    let r = check_outline_agreement("fig3-on-fig1", &compile(&f.prog), &figures::fig3_outline(&f));
    assert!(!r.violations.is_empty(), "relaxed MP must violate the Figure-3 outline");
}

/// The full Figure-7 outline (Lemma 4): valid, with the oracle's
/// statistics.
#[test]
fn fig7_outline_agrees_across_engines() {
    let f = figures::fig7();
    let r = check_outline_agreement("fig7", &compile(&f.prog), &figures::fig7_outline(&f));
    assert!(r.valid(), "Figure-7 outline is valid");
}

/// A deliberately interference-unsound annotation on Figure 7: the
/// oracle's violation set, including Interference classifications.
#[test]
fn fig7_naive_annotation_violations_agree_across_engines() {
    let f = figures::fig7();
    let outline = ProofOutline::new("naive", 2).pre(1, 1, dobs(1, f.d1, 0));
    let r = check_outline_agreement("fig7-naive", &compile(&f.prog), &outline);
    assert!(
        r.violations.iter().any(|v| v.class == OgClass::Interference),
        "the naive annotation must fail by interference"
    );
}

/// Ablation A5: sleep-set partial-order reduction prunes **transitions
/// only**. A state query under `Reduction::Full` (sleep sets + symmetry)
/// must keep the terminal and deadlock multisets and the violation set
/// bit-identical to the unreduced reference search — and the state count
/// too, on every program without symmetric threads. The transition count
/// must never grow, and must strictly shrink somewhere across the gallery
/// (the reduction is real, not vacuous).
#[test]
fn por_prunes_transitions_but_preserves_reports() {
    let mut full_total = 0usize;
    let mut por_total = 0usize;
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let check = flag_terminals(&prog);
        let oracle = reference::explore(&prog, objs, usize::MAX, &check);
        full_total += oracle.transitions;
        let symmetric = !rc11::analyze::thread_symmetry(&prog).is_trivial();

        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        let walk = Engine::Sequential.explore_with(&prog, objs, &opts, &check);
        if symmetric {
            assert!(walk.states <= oracle.states, "{}: POR grew the states", l.name);
        } else {
            assert_eq!(walk.states, oracle.states, "{}: POR lost states", l.name);
        }
        assert_eq!(
            config_multiset(&walk.terminated),
            config_multiset(&oracle.terminated),
            "{}: POR changed the terminal set",
            l.name
        );
        assert_eq!(
            config_multiset(&walk.deadlocked),
            config_multiset(&oracle.deadlocked),
            "{}: POR changed the deadlock set",
            l.name
        );
        assert_eq!(
            violation_set(&walk),
            violation_set(&oracle),
            "{}: POR changed the violation set",
            l.name
        );
        assert!(
            walk.transitions <= oracle.transitions,
            "{}: POR generated more transitions ({} > {})",
            l.name,
            walk.transitions,
            oracle.transitions
        );
        assert!(!walk.truncated(), "{}", l.name);
        por_total += walk.transitions;
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
/// unreduced reference search (a state query under `Reduction::Full`,
/// composed with sleep sets). The gallery's `2RMW` entry (two threads
/// FAI-ing one location, identical modulo register renaming) must shed
/// states strictly — the reduction is real, not vacuous.
#[test]
fn symmetry_preserves_reports_and_sheds_states() {
    let mut reduced_somewhere = false;
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let check = flag_terminals(&prog);
        let base = ExploreOptions { record_traces: false, ..Default::default() };
        let oracle = reference::explore(&prog, objs, usize::MAX, &check);
        let r = Engine::Sequential.explore_with(&prog, objs, &base, &check);
        let name = &l.name;
        reduced_somewhere |= r.states < oracle.states;
        assert!(
            r.states <= oracle.states,
            "{name}: symmetry grew the state count ({} > {})",
            r.states,
            oracle.states
        );
        assert!(r.transitions <= oracle.transitions, "{name}: symmetry generated more transitions");
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
            violation_set(&r),
            violation_set(&oracle),
            "{name}: symmetry changed the violation set"
        );
        assert!(!r.truncated(), "{name}: truncated");
        if l.name == "2RMW" {
            assert!(
                r.states < oracle.states,
                "2RMW is fully symmetric; reduction must be real ({} vs {})",
                r.states,
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
/// once), composed with symmetry. Strict shedding is asserted corpus-side
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
        let r = Engine::Sequential.explore(&prog, objs, &opts);
        let name = &l.name;
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
    }
}

/// A symmetric lock client under `Reduction::Full`: a held lock records
/// its owner's thread id, so folding the two clients' orbit must rename
/// the owner with the thread (otherwise the representative's holder could
/// never release, and the walk would report deadlocks the program does
/// not have). The walk must reproduce the reference's terminal, deadlock
/// and violation sets, and its traces — for representatives and orbit
/// members alike — replay step by step.
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
    let check = flag_terminals(&prog);
    let oracle = reference::explore(&prog, &AbstractObjects, usize::MAX, &check);
    let opts = ExploreOptions::default();
    let walk = Engine::Sequential;
    for report in [
        walk.explore(&prog, &AbstractObjects, &opts),
        walk.explore_with(&prog, &AbstractObjects, &opts, &check),
    ] {
        assert!(report.deadlocked.is_empty(), "the lock never deadlocks");
        assert_eq!(
            config_multiset(&report.terminated),
            config_multiset(&oracle.terminated),
            "terminal set"
        );
        assert!(report.states < oracle.states, "the orbit folds");
    }
    let report = walk.explore_with(&prog, &AbstractObjects, &opts, &check);
    assert_eq!(violation_set(&report), violation_set(&oracle), "violations");
    for v in &report.violations {
        assert_trace_replays(&prog, &AbstractObjects, opts.step, v);
    }
}

/// Symmetry-reduced violation traces are exactly replayable — for the
/// orbit representative *and* for every expanded orbit member: the
/// per-edge permutations compose into a concrete interleaving of the
/// original program (the automorphisms fix the initial state).
#[test]
fn symmetry_violation_traces_replay_sequentially() {
    // 2RMW: fully symmetric, so both the representative and a nontrivial
    // orbit member produce violations; SB+ra: trivial symmetry (the spec
    // is empty), pinning the identity path.
    for l in [litmus::two_rmw(), litmus::sb_ra()] {
        let prog = compile(&l.prog);
        let opts = ExploreOptions::default();
        let check = flag_terminals(&prog);
        let report = Engine::Sequential.explore_with(&prog, &NoObjects, &opts, check);
        assert!(!report.violations.is_empty(), "{}: terminals exist", l.name);
        assert_eq!(
            report.violations.len(),
            l.expected.len(),
            "{}: orbit expansion must flag every terminal exactly once",
            l.name
        );
        for v in &report.violations {
            assert_trace_replays(&prog, &NoObjects, opts.step, v);
        }
    }
}

/// Satellite of A6: beyond 64 threads the sleep masks cannot represent
/// the thread set, so `Reduction::Full` must *fall back* to search without
/// sleep or persistent sets (and say so via `EngineReport::por_fallback`)
/// instead of asserting. The 64 empty threads compile to zero
/// instructions, so the state space is the two real threads' — the
/// fallback is observable without a blow-up.
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
    let oracle = reference::explore(&prog, &NoObjects, usize::MAX, |_, _| {});
    assert_reports_agree("Wide", &oracle, &full);
    for report in [
        Engine::Sequential.explore(&prog, &NoObjects, &base),
        Engine::Sequential.explore_with(&prog, &NoObjects, &base, |_, _| {}),
    ] {
        assert!(report.por_fallback(), "must report the fallback");
        assert_eq!(report.states, full.states, "fallback is unreduced");
        assert_eq!(report.transitions, full.transitions, "fallback is unreduced");
        assert_eq!(report.terminated.len(), full.terminated.len(), "terminals");
    }
}

/// Violations of SB's weak outcome ("both reads zero") carry replayable
/// traces under both settings of the reduction switch: every step is a
/// real transition and the trace ends at the violating configuration.
/// The walk records the *first* parent that discovered a state — a valid
/// path from the initial configuration, not a shortest one — and sleep
/// sets may pick other paths than the unreduced search, so validity and
/// endpoints are checked, not lengths.
#[test]
fn por_violation_traces_replay() {
    let l = litmus::sb_ra();
    let prog = compile(&l.prog);
    let check = |cfg: &Config, out: &mut Vec<String>| {
        if cfg.terminated(&prog)
            && l.observe.iter().all(|&(t, r)| cfg.reg(t, r) == rc11::core::Val::Int(0))
        {
            out.push("both zero".to_string());
        }
    };
    let oracle = reference::explore(&prog, &NoObjects, usize::MAX, check);
    for reduce in [Reduction::Full, Reduction::None] {
        let opts = ExploreOptions { reduce, ..Default::default() };
        let report = Engine::Sequential.explore_with(&prog, &NoObjects, &opts, check);
        assert!(!report.violations.is_empty(), "{reduce:?}: SB weak outcome reachable");
        assert_eq!(violation_set(&report), violation_set(&oracle), "{reduce:?}: violations");
        for v in &report.violations {
            assert_trace_replays(&prog, &NoObjects, opts.step, v);
        }
    }
}

/// Cap parity: when `max_states` cuts a run short, the walk and the
/// reference oracle return the same verdict — truncated, with exactly
/// `max_states` states. Transition and terminal counts legitimately
/// differ under truncation (the two drop different states), so only the
/// verdict is compared. Unreduced, so both reach the same total.
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
            let walk = Engine::Sequential.explore(&prog, objs, &opts);
            assert_eq!(walk.stop, StopReason::StateCap, "{} cap {cap}: walk stop", l.name);
            assert_eq!(walk.states, cap, "{} cap {cap}: walk states", l.name);
            let oracle = reference::explore(&prog, objs, cap, |_, _| {});
            assert_eq!(oracle.stop, walk.stop, "{} cap {cap}: oracle stop", l.name);
        }
    }
}

/// A two-thread program where thread 1 writes data, then re-acquires the
/// lock it still holds — guaranteeing a reachable deadlocked
/// configuration — while thread 2 reads the data.
fn deadlock_prog() -> CfgProgram {
    let mut p = ProgramBuilder::new("deadlock-mp");
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    let t1 = ThreadBuilder::new();
    // acquire; x := 1; acquire (blocks forever: double acquire).
    p.add_thread(t1, seq([acquire(l), wr(x, 1), acquire(l)]));
    let mut t2 = ThreadBuilder::new();
    let r = t2.reg("r");
    p.add_thread(t2, seq([rd(r, x)]));
    compile(&p.build())
}

/// A known deadlock, flagged by the check callback at the stuck
/// configurations themselves: the oracle's deadlocks, each with a trace
/// that replays to it.
#[test]
fn deadlock_configuration_has_replayable_trace() {
    let prog = deadlock_prog();
    let opts = ExploreOptions::default();
    // Flag exactly the stuck configurations: no successors, not terminated.
    let check = |cfg: &Config, out: &mut Vec<String>| {
        if successors(&prog, &AbstractObjects, cfg, opts.step).is_empty() && !cfg.terminated(&prog)
        {
            out.push("deadlock".to_string());
        }
    };
    let oracle = reference::explore(&prog, &AbstractObjects, usize::MAX, check);
    let walk = Engine::Sequential.explore_with(&prog, &AbstractObjects, &opts, check);
    assert!(!walk.deadlocked.is_empty(), "the double acquire must deadlock");
    assert_eq!(config_multiset(&walk.deadlocked), config_multiset(&oracle.deadlocked));
    assert_eq!(violation_set(&walk), violation_set(&oracle));
    for v in &walk.violations {
        assert!(!v.trace.as_ref().expect("traces on").is_empty(), "not the initial state");
        assert_trace_replays(&prog, &AbstractObjects, opts.step, v);
    }
}

/// A known invariant violation mid-graph ("x never holds 2" over a thread
/// writing 1 then 2, with an unrelated second thread), through
/// [`Engine::check_invariant`]: the oracle's violating states, each with
/// a replayable trace of at least the two writes.
#[test]
fn invariant_violation_has_replayable_trace() {
    let mut p = ProgramBuilder::new("bad-invariant");
    let x = p.client_var("x", 0);
    let y = p.client_var("y", 0);
    p.add_thread(ThreadBuilder::new(), seq([wr(x, 1), wr(x, 2)]));
    p.add_thread(ThreadBuilder::new(), seq([wr(y, 7)]));
    let prog = compile(&p.build());
    let pred = pnot(pobs(0, x, 2));
    let opts = ExploreOptions::default();
    let walk = Engine::Sequential.check_invariant(&prog, &NoObjects, &opts, &pred);
    let oracle = reference::explore(&prog, &NoObjects, usize::MAX, |cfg, out| {
        if !pred.eval(EvalCtx { prog: &prog, cfg }) {
            out.push("invariant violated".to_string());
        }
    });
    assert!(!walk.violations.is_empty(), "the invariant is genuinely violated");
    assert_eq!(violation_set(&walk), violation_set(&oracle), "same violating states");
    for v in &walk.violations {
        assert!(v.trace.as_ref().expect("traces on").len() >= 2, "at least the two writes");
        assert_trace_replays(&prog, &NoObjects, opts.step, v);
    }
}

/// The `record_traces` knob: off means `trace: None` on every violation.
#[test]
fn violations_carry_no_trace_when_recording_is_off() {
    let prog = deadlock_prog();
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    let report = Engine::Sequential.explore_with(&prog, &AbstractObjects, &opts, |cfg, out| {
        if cfg.pcs().iter().all(|&pc| pc > 0) {
            out.push("all threads moved".to_string());
        }
    });
    assert!(!report.violations.is_empty());
    assert!(report.violations.iter().all(|v| v.trace.is_none()));
}

/// Replayed traces carry full configurations, not just pcs: a register
/// read in the deadlock program's thread 2 stays observable at the end of
/// every replayed trace.
#[test]
fn replayed_traces_end_at_full_configurations() {
    let prog = deadlock_prog();
    let opts = ExploreOptions::default();
    let report = Engine::Sequential.explore_with(&prog, &AbstractObjects, &opts, |cfg, out| {
        if cfg.reg(1, Reg(0)) == Val::Int(1) {
            out.push("t2 observed the published write".to_string());
        }
    });
    assert!(!report.violations.is_empty(), "t2 can read x = 1 after the publish");
    for v in &report.violations {
        assert_trace_replays(&prog, &AbstractObjects, opts.step, v);
        assert_eq!(v.config.reg(1, Reg(0)), Val::Int(1));
    }
}
