//! Resilience-runtime integration tests: the budget/cancellation lattice,
//! fault containment, checkpoint/resume, and the seeded chaos
//! differential, exercised end-to-end over the litmus gallery.
//!
//! The contract under test (see DESIGN.md, "Robustness runtime"): any
//! early stop — budget trip, cancellation, contained fault — yields
//! a report that is a **sound lower bound** on the reachable space with an
//! explicit non-`Complete` [`StopReason`], and a run that does complete
//! under injected faults is **bit-identical** to the unfaulted oracle.
//! Nothing in between: never silently wrong. Hostile input is refused the
//! same way: a file nested past the parser's depth cap is an unreadable
//! row, never a crashed batch.

use proptest::prelude::*;
use rc11::check::{
    reference, Budget, CancelToken, ChaosState, CheckParams, CheckService, CheckpointOpts,
    Engine, ExploreOptions, FaultPlan, StopReason, Violation,
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
            "step {i} by {tid:?} is not a real transition of the program"
        );
        cur = next.clone();
    }
    assert_eq!(cur, v.config, "trace must end at the violating configuration");
}

/// The chaos differential, gallery-wide: under seeded expansion panics
/// and checkpoint-write failures, every run through the request path
/// (whose `catch_unwind` contains the panic) either matches the unfaulted
/// run exactly or stops with an explicit non-`Complete` reason and sound
/// lower bounds.
#[test]
fn chaos_faults_never_silently_corrupt_gallery_results() {
    let base = ExploreOptions { record_traces: false, ..Default::default() };
    let service = CheckService::new();
    let mut contained = 0;
    for l in litmus::all() {
        let (oracle, ostop, odead) = litmus::run_with_opts(&l, &Engine::Sequential, &base);
        assert!(ostop.is_complete(), "{}: oracle must complete", l.name);
        for seed in [1u64, 7, 42, 0x00C0_FFEE] {
            let plan = FaultPlan::from_seed(seed);
            let params =
                CheckParams { chaos: Some(ChaosState::new(plan)), ..CheckParams::default() };
            let res = service.check_parts(&l.name, &l.prog, &l.observe, &l.expected, &params);
            let stop = res.stop;
            if stop.is_complete() {
                assert_eq!(
                    (res.states, res.transitions, res.deadlocks),
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
                contained += usize::from(stop == StopReason::WorkerFault);
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
    assert!(contained > 0, "some seeded panic must fire and be contained");
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

/// `Engine::check_invariant` honours budgets: unbudgeted, it finds exactly
/// the reference oracle's violating configurations; under a transition
/// cap it trips [`StopReason::TransitionCap`], and its partial violations
/// are genuine (members of the oracle's violation set).
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
    let oracle = reference::explore(&prog, &NoObjects, usize::MAX, |cfg, out| {
        if !pred.eval(rc11_assert::EvalCtx { prog: &prog, cfg }) {
            out.push("invariant violated".to_string());
        }
    });
    assert!(!seq_full.violations.is_empty(), "the invariant is genuinely violated");
    assert!(seq_full.stop.is_complete() && oracle.stop.is_complete());
    let configs = |vs: &[Violation]| {
        vs.iter().map(|v| v.config.clone()).collect::<std::collections::HashSet<_>>()
    };
    assert_eq!(configs(&seq_full.violations), configs(&oracle.violations));

    let cap = (seq_full.transitions / 2).max(1);
    let capped = ExploreOptions {
        budget: Budget { max_transitions: Some(cap), ..Default::default() },
        ..base.clone()
    };
    let full_violations = configs(&oracle.violations);
    let report = Engine::Sequential.check_invariant(&prog, &NoObjects, &capped, &pred);
    assert_eq!(report.stop, StopReason::TransitionCap, "the cap must trip its stop reason");
    assert!(report.states <= seq_full.states, "budgeted run must be a lower bound");
    for v in &report.violations {
        assert!(
            full_violations.contains(&v.config),
            "budgeted run reported a violation the oracle never found"
        );
    }
}

/// Degenerate budgets are still explicit verdicts: an already-expired
/// deadline and a one-byte memory budget each stop before doing real
/// work, with the matching [`StopReason`].
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
        let opts = ExploreOptions { budget, ..base.clone() };
        let report = Engine::Sequential.explore(&prog, objs, &opts);
        assert_eq!(report.stop, want);
        assert!(report.states <= full.states, "still a lower bound");
    }
}

/// Every location's initial operation has a modification view as wide as
/// the location count, so a program's initial state grows with the square
/// of its declarations: 3,000 `var`s need about 36 MB before the first
/// step. Under a memory budget that size is charged before the state is
/// built, so the walk, the outline checker (which evaluates no initial
/// annotation) and `rc11 run --mem-budget` stop on `mem-budget` with 0
/// states instead of allocating it.
#[test]
fn many_locations_stop_on_the_memory_budget_before_the_initial_state() {
    let vars: String = (0..3_000).map(|i| format!("var x{i} = 0\n")).collect();
    let src = format!(
        "litmus \"wide\"\n{vars}thread T {{ r = x0; }}\nobserve T.r\nexpected {{ (0) }}\n"
    );
    let prog = compile(&rc11::lang::parse_litmus(&src).expect("parses").prog);
    assert!(Config::initial_bytes(&prog) > 30_000_000);
    let budget = Budget { max_mem_bytes: Some(1_000_000), ..Default::default() };
    let opts = ExploreOptions { budget, ..Default::default() };
    let report = Engine::Sequential.explore(&prog, &NoObjects, &opts);
    assert_eq!(report.stop, StopReason::MemBudget);
    assert_eq!(report.states, 0);
    let outline = rc11::assert::ProofOutline::new("wide", 1);
    let checked = rc11::check::check_outline(&prog, &NoObjects, &outline, &opts);
    assert_eq!((checked.stop, checked.states, checked.checks), (StopReason::MemBudget, 0, 0));

    let dir = std::env::temp_dir().join(format!("rc11-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wide = dir.join("wide.litmus");
    std::fs::write(&wide, src).expect("write wide file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rc11"))
        .arg("run")
        .arg(&wide)
        .args(["--mem-budget", "1000000"])
        .output()
        .expect("rc11 runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "a stopped-early row, not a crash: {stdout}");
    assert!(stdout.contains("stopped early (mem-budget); 0 states explored"), "{stdout}");
}

/// A symmetric group too large for the orbit cap degrades to the
/// unreduced walk with a note. Twenty-one identical threads already
/// saturate the orbit count (21! > 2^64); the note says so instead of
/// printing the saturated `usize::MAX`.
#[test]
fn saturated_orbit_note_reads_as_a_bound() {
    let threads: String = (0..21).map(|i| format!("thread T{i} {{ r = x; }}\n")).collect();
    let src = format!("litmus \"sym21\"\nvar x = 0\n{threads}observe T0.r\nexpected {{ (0) }}\n");
    let prog = compile(&rc11::lang::parse_litmus(&src).expect("parses").prog);
    let opts = ExploreOptions { max_states: 2, record_traces: false, ..Default::default() };
    let report = Engine::Sequential.explore(&prog, &NoObjects, &opts);
    let notes: Vec<String> = report.notes.iter().map(ToString::to_string).collect();
    let note = notes
        .iter()
        .find(|n| n.starts_with("symmetry-fallback"))
        .unwrap_or_else(|| panic!("no orbit-cap note in {notes:?}"));
    assert_eq!(note, "symmetry-fallback: orbit ≥ 2^64 exceeds cap 10000, unreduced");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Cooperative cancellation at arbitrary seeded points: a run whose
    /// token fired mid-exploration never claims `Complete`,
    /// its counts stay lower bounds, and every violation it did report
    /// replays step-by-step through `successors`. A token that never
    /// fired leaves the run bit-identical to an uncancelled one.
    #[test]
    fn cancelled_runs_are_sound_lower_bounds(
        li in 0usize..64,
        cancel_after in 1usize..300,
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
        let report = Engine::Sequential.explore_with(&prog, objs, &opts, |cfg, out| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == cancel_after {
                trigger.cancel();
            }
            check(cfg, out);
        });

        if token.is_cancelled() {
            prop_assert!(
                !report.stop.is_complete(),
                "{}: a cancelled run must not claim Complete",
                l.name
            );
            prop_assert!(report.states <= oracle.states, "{}", l.name);
            prop_assert!(report.transitions <= oracle.transitions, "{}", l.name);
            for v in &report.violations {
                assert_trace_replays(&prog, objs, opts.step, v);
            }
        } else {
            // The token never fired: the walk saw no cancellation and
            // must agree with the oracle.
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

/// Hostile input for the `.litmus` lexer: a 1 MiB comment line, a 1 MiB
/// identifier, a 1 MiB string literal, a 100,000-digit integer and
/// 100,000 tokens on one line. Each is a parse or a spanned error, never a
/// panic or a stack overflow.
#[test]
fn hostile_lexer_inputs_parse_or_fail_with_a_span() {
    use rc11::lang::parse::parse_litmus;
    const MIB: usize = 1 << 20;
    let tail = "var x = 0\nthread T { r = x; }\nobserve T.r\nexpected { (0) }\n";

    let src = format!("litmus \"c\"\n// {}\n{tail}", "c".repeat(MIB));
    let p = parse_litmus(&src).expect("a long comment is skipped");
    assert_eq!(p.lint.vars[0].2.line, 3);

    let ident = "v".repeat(MIB);
    let src = format!("litmus \"i\"\nvar {ident} = 0\n{tail}");
    let p = parse_litmus(&src).expect("a long identifier is a name");
    assert_eq!(p.lint.vars[0].1, ident);
    assert_eq!((p.lint.vars[1].2.line, p.lint.vars[1].2.col), (3, 5));

    let text = "s".repeat(MIB);
    let p = parse_litmus(&format!("litmus \"{text}\" {tail}")).expect("a long string is a name");
    assert_eq!(p.name, text);
    assert_eq!(p.lint.vars[0].2.col as usize, 8 + MIB + 2 + 4 + 1);

    let digits = "7".repeat(100_000);
    let e = parse_litmus(&format!("litmus \"n\"\nvar x = {digits}\n"))
        .expect_err("a 100,000-digit literal overflows");
    assert_eq!((e.span.line, e.span.col), (2, 9));
    assert_eq!(e.msg, format!("integer literal `{digits}` overflows"));

    // Over 100,000 tokens on one line: 25,000 `skip;` and 16,667 outcome
    // tuples. Both are flat; a chain of that many statements or operators
    // would instead deepen the program tree, a limit of the tree passes
    // after the lexer.
    let src = format!(
        "litmus \"t\" var x = 0 thread T {{ r = x; {}}} observe T.r expected {{ {}}}",
        "skip; ".repeat(25_000),
        "(0) ".repeat(16_667)
    );
    let p = parse_litmus(&src).expect("a long line of tokens parses");
    assert_eq!(p.expected.len(), 1);
    let e = parse_litmus(&format!("{src} @")).expect_err("trailing garbage is refused");
    assert_eq!((e.span.line as usize, e.span.col as usize), (1, src.chars().count() + 2));
    assert_eq!(e.msg, "unexpected character `@`");
}

/// Long statement sequences and operator chains through the whole request
/// path, on a 2 MiB thread like an `rc11d` worker's: 15,000 statements or
/// a 15,000-term sum (which once overflowed that stack and aborted the
/// process) are structured errors, and programs at the parser's height
/// bound are checked — every pass over their trees fits the stack.
#[test]
fn long_sequences_and_chains_are_refused_or_checked_on_a_worker_stack() {
    use rc11::lang::parse::MAX_HEIGHT;
    let program = |body: String| {
        let head = "litmus \"long\"\nvar x = 0\nthread T {\n";
        format!("{head}{body}x = r;\n}}\nobserve T.r\nexpected {{ (1) }}\n")
    };
    let sum = |terms: usize| format!("r = {} - {};\n", vec!["1"; terms - 1].join(" + "), terms - 2);
    let cases = [
        (program("r = 1;\n".repeat(15_000)), false),
        (program(sum(15_000)), false),
        (program("r = 1;\n".repeat(MAX_HEIGHT - 2)), true),
        (program(sum(MAX_HEIGHT - 2)), true),
    ];
    for (src, ok) in cases {
        let lines = src.lines().count();
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || CheckService::new().check_source(&src, &CheckParams::default()))
            .expect("spawn")
            .join()
            .expect("no panic");
        match r {
            Ok(resp) => {
                assert!(ok, "{lines} lines: checked, but past the bound");
                assert!(resp.pass, "{lines} lines: {:?}", resp.observed);
            }
            Err(e) => {
                assert!(!ok, "{lines} lines: {e}");
                assert!(e.contains(&format!("nest deeper than {MAX_HEIGHT} levels")), "{e}");
            }
        }
    }
}
