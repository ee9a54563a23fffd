//! Resilience-runtime integration tests: the budget/cancellation lattice,
//! worker-fault containment, checkpoint/resume, and the seeded chaos
//! differential, exercised end-to-end over the litmus gallery.
//!
//! The contract under test (see DESIGN.md, "Robustness runtime"): any
//! early stop — budget trip, cancellation, contained worker fault — yields
//! a report that is a **sound lower bound** on the reachable space with an
//! explicit non-`Complete` [`StopReason`], and a run that does complete
//! under injected faults is **bit-identical** to the unfaulted oracle.
//! Nothing in between: never silently wrong. Hostile input is refused the
//! same way: a file nested past the parser's depth cap is an unreadable
//! row, never a crashed batch.

use proptest::prelude::*;
use rc11::check::{
    choose_engine, Budget, CancelToken, ChaosState, CheckpointOpts, Engine, ExploreOptions,
    FaultPlan, StopReason, Violation,
};
use rc11::lang::cfg::CfgProgram;
use rc11::lang::machine::{successors, Config, NoObjects, ObjectSemantics, StepOptions};
use rc11::lang::compile;
use rc11_litmus as litmus;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Replay `v`'s trace: every step must be a transition the semantics
/// really offers from the previous configuration, and the walk must end
/// at the violating configuration — a partial report's violations are
/// real counterexamples, not artifacts of stopping early.
fn assert_trace_replays(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    step: StepOptions,
    v: &Violation,
) {
    let trace = v.trace.as_ref().expect("violation must carry a trace");
    let mut cur = Config::initial(prog).canonical();
    for (i, (tid, next)) in trace.iter().enumerate() {
        let succs = successors(prog, objs, &cur, step);
        assert!(
            succs.iter().any(|(t, s)| t == tid && s.canonical() == *next),
            "step {i} by {tid:?} is not a real transition of the program"
        );
        cur = next.clone();
    }
    assert_eq!(cur, v.config, "trace must end at the violating configuration");
}

/// The chaos differential, gallery-wide: under seeded worker panics,
/// stalls and checkpoint-write failures, every run either matches the
/// unfaulted sequential run exactly or stops with an explicit
/// non-`Complete` reason and sound lower bounds.
#[test]
fn chaos_faults_never_silently_corrupt_gallery_results() {
    let base = ExploreOptions { record_traces: false, ..Default::default() };
    for l in litmus::all() {
        let (oracle, ostop, odead) = litmus::run_with_opts(&l, &Engine::Sequential, &base);
        assert!(ostop.is_complete(), "{}: oracle must complete", l.name);
        for seed in [1u64, 7, 42, 0x00C0_FFEE] {
            let plan = FaultPlan::from_seed(seed);
            let opts =
                ExploreOptions { chaos: Some(ChaosState::new(plan)), ..base.clone() };
            let (res, stop, dead) =
                litmus::run_with_opts(&l, &Engine::Parallel { workers: 2 }, &opts);
            if stop.is_complete() {
                assert_eq!(
                    (res.states, res.transitions, dead),
                    (oracle.states, oracle.transitions, odead),
                    "{} seed {seed} ({plan:?}): a complete faulted run must match the oracle",
                    l.name
                );
                assert_eq!(
                    res.observed, oracle.observed,
                    "{} seed {seed}: outcome set must match the oracle",
                    l.name
                );
            } else {
                assert!(
                    res.states <= oracle.states,
                    "{} seed {seed} ({stop}): partial states exceed the oracle",
                    l.name
                );
                assert!(
                    res.observed.is_subset(&oracle.observed),
                    "{} seed {seed} ({stop}): partial run observed an impossible outcome",
                    l.name
                );
            }
        }
    }
}

/// Checkpoint/resume, gallery-wide: interrupt a checkpointing sequential
/// run with a transition budget, then resume it without the budget — the
/// resumed report must be bit-identical to an uninterrupted run's, and a
/// complete run must clean up its checkpoint.
#[test]
fn interrupted_checkpointed_runs_resume_bit_identically() {
    let base = ExploreOptions { record_traces: false, ..Default::default() };
    let mut resumed_any = false;
    for l in litmus::all() {
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let oracle = Engine::Sequential.explore(&prog, objs, &base);
        assert!(oracle.stop.is_complete(), "{}: oracle must complete", l.name);

        let dir = std::env::temp_dir().join(format!("rc11-resume-{}", l.name));
        let _ = std::fs::remove_dir_all(&dir);
        let cap = (oracle.transitions / 2).max(1);
        let interrupted = ExploreOptions {
            budget: Budget { max_transitions: Some(cap), ..Default::default() },
            checkpoint: Some(CheckpointOpts { dir: dir.clone(), every: 1 }),
            ..base.clone()
        };
        let partial = Engine::Sequential.explore(&prog, objs, &interrupted);
        if partial.stop.is_complete() {
            // The whole space fit under the cap; nothing to resume.
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        assert_eq!(partial.stop, StopReason::TransitionCap, "{}", l.name);
        assert!(
            partial.states <= oracle.states && partial.transitions <= oracle.transitions,
            "{}: interrupted run must be a lower bound",
            l.name
        );

        let resume = ExploreOptions {
            checkpoint: Some(CheckpointOpts::new(&dir)),
            ..base.clone()
        };
        let resumed = Engine::Sequential.explore(&prog, objs, &resume);
        assert!(
            resumed.same_results(&oracle),
            "{}: resumed run diverged from the uninterrupted one \
             ({}/{} states, {}/{} transitions, stop {} vs {})",
            l.name,
            resumed.states,
            oracle.states,
            resumed.transitions,
            oracle.transitions,
            resumed.stop,
            oracle.stop
        );
        assert!(
            !dir.join("rc11.ckpt").exists(),
            "{}: a complete run must remove its checkpoint",
            l.name
        );
        let _ = std::fs::remove_dir_all(&dir);
        resumed_any = true;
    }
    assert!(resumed_any, "at least one gallery program must exercise resume");
}

/// `Engine::check_invariant` honours budgets identically on both engines:
/// the same transition cap trips the same [`StopReason`] on each, partial
/// violations are genuine (members of the full run's violation set), and
/// the unbudgeted runs agree on the verdict.
#[test]
fn check_invariant_honours_budgets_identically_across_engines() {
    use rc11::lang::builder::*;
    // "x never holds 2" — violated after the second write, with an
    // interfering reader to widen the interleaving space.
    let mut p = ProgramBuilder::new("budget-invariant");
    let x = p.client_var("x", 0);
    let y = p.client_var("y", 0);
    p.add_thread(ThreadBuilder::new(), seq([wr(x, 1), wr(x, 2)]));
    let mut t2 = ThreadBuilder::new();
    let r = t2.reg("r");
    let s = t2.reg("s");
    p.add_thread(t2, seq([rd(r, x), wr(y, 1), rd(s, x)]));
    let prog = compile(&p.build());
    let pred = rc11_assert::dsl::pnot(rc11_assert::dsl::pobs(0, x, 2));

    let base = ExploreOptions::default();
    let seq_full = Engine::Sequential.check_invariant(&prog, &NoObjects, &base, &pred);
    let par_full = choose_engine(4).check_invariant(&prog, &NoObjects, &base, &pred);
    assert!(!seq_full.violations.is_empty(), "the invariant is genuinely violated");
    assert!(seq_full.stop.is_complete() && par_full.stop.is_complete());
    assert_eq!(par_full.violations.len(), seq_full.violations.len());

    let cap = (seq_full.transitions / 2).max(1);
    let capped = ExploreOptions {
        budget: Budget { max_transitions: Some(cap), ..Default::default() },
        ..base.clone()
    };
    let full_violations: Vec<&Config> =
        seq_full.violations.iter().map(|v| &v.config).collect();
    for (what, report) in [
        ("sequential", Engine::Sequential.check_invariant(&prog, &NoObjects, &capped, &pred)),
        ("parallel", choose_engine(4).check_invariant(&prog, &NoObjects, &capped, &pred)),
    ] {
        assert_eq!(
            report.stop,
            StopReason::TransitionCap,
            "{what}: the cap must trip the same stop reason"
        );
        assert!(
            report.states <= seq_full.states,
            "{what}: budgeted run must be a lower bound"
        );
        for v in &report.violations {
            assert!(
                full_violations.contains(&&v.config),
                "{what}: budgeted run reported a violation the full run never found"
            );
        }
    }
}

/// Degenerate budgets are still explicit verdicts, identically across
/// engines: an already-expired deadline and a one-byte memory budget each
/// stop before doing real work, with the matching [`StopReason`].
#[test]
fn degenerate_budgets_stop_immediately_with_the_right_verdict() {
    let l = &litmus::all()[0];
    let prog = compile(&l.prog);
    let objs = litmus::objects_for(l);
    let base = ExploreOptions { record_traces: false, ..Default::default() };
    let full = Engine::Sequential.explore(&prog, objs, &base);
    for (want, budget) in [
        (StopReason::Deadline, Budget { deadline: Some(Duration::ZERO), ..Default::default() }),
        (StopReason::MemBudget, Budget { max_mem_bytes: Some(1), ..Default::default() }),
    ] {
        for engine in [Engine::Sequential, Engine::Parallel { workers: 2 }] {
            let opts = ExploreOptions { budget, ..base.clone() };
            let report = engine.explore(&prog, objs, &opts);
            assert_eq!(report.stop, want, "{engine:?}");
            assert!(report.states <= full.states, "{engine:?}: still a lower bound");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Cooperative cancellation at arbitrary seeded points, both engines:
    /// a run whose token fired mid-exploration never claims `Complete`,
    /// its counts stay lower bounds, and every violation it did report
    /// replays step-by-step through `successors`. A token that never
    /// fired leaves the run bit-identical to an uncancelled one.
    #[test]
    fn cancelled_runs_are_sound_lower_bounds(
        li in 0usize..64,
        cancel_after in 1usize..300,
        parallel in any::<bool>(),
    ) {
        let gallery = litmus::all();
        let l = &gallery[li % gallery.len()];
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(l);
        let base = ExploreOptions::default();
        let check = |cfg: &Config, out: &mut Vec<String>| {
            if cfg.terminated(&prog) {
                out.push("terminal".to_string());
            }
        };
        let oracle = Engine::Sequential.explore_with(&prog, objs, &base, check);

        let token = CancelToken::new();
        let trigger = token.clone();
        let calls = AtomicUsize::new(0);
        let opts = ExploreOptions { cancel: token.clone(), ..base.clone() };
        let engine =
            if parallel { Engine::Parallel { workers: 2 } } else { Engine::Sequential };
        let report = engine.explore_with(&prog, objs, &opts, |cfg, out| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == cancel_after {
                trigger.cancel();
            }
            check(cfg, out);
        });

        if token.is_cancelled() {
            prop_assert!(
                !report.stop.is_complete(),
                "{} ({engine:?}): a cancelled run must not claim Complete",
                l.name
            );
            prop_assert!(report.states <= oracle.states, "{}", l.name);
            prop_assert!(report.transitions <= oracle.transitions, "{}", l.name);
            for v in &report.violations {
                assert_trace_replays(&prog, objs, opts.step, v);
            }
        } else {
            // The token never fired: the walk saw no cancellation and
            // must agree with the oracle (parallel order aside).
            prop_assert_eq!(report.states, oracle.states, "{}", l.name);
            prop_assert_eq!(report.transitions, oracle.transitions, "{}", l.name);
            prop_assert_eq!(report.stop, StopReason::Complete);
        }
    }
}

/// A `.litmus` file with 200k nested `if` blocks once overflowed the
/// parser's stack and aborted the whole `rc11 run` batch. It must now be
/// reported unreadable with the parser's spanned error, while the corpus
/// file next to it still gets its `pass` row and the batch exits normally.
#[test]
fn deeply_nested_litmus_file_is_unreadable_not_a_crash() {
    let n = 200_000;
    let dir = std::env::temp_dir().join(format!("rc11-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deep = dir.join("deep.litmus");
    let src = format!(
        "litmus \"deep\"\nvar x = 0\nthread T {{\n{}{}}}\nobserve T.r\nexpected {{ (0) }}\n",
        "if (true) {\n".repeat(n),
        "}\n".repeat(n)
    );
    std::fs::write(&deep, src).expect("write deep file");
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/mp_ra.litmus");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rc11"))
        .arg("run")
        .arg(&deep)
        .arg(&corpus)
        .output()
        .expect("rc11 runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a normal failing exit, not a crash: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "the parse error is reported: {stderr}");
    assert!(
        stdout.lines().any(|l| l.starts_with("MP+ra") && l.trim_end().ends_with("pass")),
        "the corpus file still gets its row:\n{stdout}"
    );
    assert!(stdout.contains("1 passed, 0 failed, 1 unreadable"), "{stdout}");
}
