//! Seeded generative differential fuzzing as part of the ordinary test
//! suite.
//!
//! A bounded fixed-seed run executes on every `cargo test`; the heavy
//! sweep is `#[ignore]`d and runs on demand
//! (`cargo test --release -- --ignored`) or from the CLI
//! (`rc11 fuzz --iters N`). Every generated program is checked for:
//! report parity of both engines with the `rc11_check::reference`
//! oracle under both settings of the reduction switch (`Reduction::None`:
//! counts exact; `Reduction::Full`: terminal, deadlock and outcome sets
//! exact, states and transitions bounded above), the `.litmus`
//! printer/parser round-trip, and sampler soundness (`random_walk`
//! terminal outcomes ⊆ the exhaustive outcome set).

use rc11::check::fuzz::{diff_one, fuzz, DiffOptions, DiffVerdict};
use rc11::check::gen::{generate, GenOptions};

fn fail_message(report: &rc11::check::fuzz::FuzzReport) -> String {
    match &report.failure {
        None => String::new(),
        Some(f) => format!(
            "iteration {} (seed {}): {}\nshrunk repro:\n{}",
            f.iter, f.seed, f.what, f.source
        ),
    }
}

#[test]
fn fixed_seed_fuzz_differential_is_clean() {
    let gen_opts = GenOptions { max_stmts: 3, ..Default::default() };
    let diff_opts = DiffOptions {
        workers: vec![2],
        max_states: 1 << 16,
        samples: 12,
        ..Default::default()
    };
    let report = fuzz(0xD1FF_2026, 32, &gen_opts, &diff_opts, |_| {});
    assert_eq!(report.iters, 32);
    assert!(report.ok(), "{}", fail_message(&report));
    assert!(
        report.passed >= 16,
        "too many skips ({} passed, {} skipped): the cap is mis-tuned for the generator",
        report.passed,
        report.skipped
    );
}

/// Worker-count coverage at the fuzz level: a second seed with a wider
/// worker list but fewer iterations.
#[test]
fn fixed_seed_fuzz_differential_covers_more_workers() {
    let gen_opts = GenOptions { max_stmts: 2, max_threads: 3, ..Default::default() };
    let diff_opts = DiffOptions {
        workers: vec![3, 8],
        max_states: 1 << 16,
        samples: 8,
        ..Default::default()
    };
    let report = fuzz(0xBEEF, 12, &gen_opts, &diff_opts, |_| {});
    assert!(report.ok(), "{}", fail_message(&report));
    assert!(report.passed > 0);
}

/// A deliberately-large program exercises the skip path: the verdict is
/// `Skipped`, never a spurious `Fail`.
#[test]
fn oversized_programs_are_skipped_not_failed() {
    let gen_opts = GenOptions { min_threads: 4, max_threads: 4, max_stmts: 4, ..Default::default() };
    // Find a seed whose program overflows a tiny cap.
    let tiny = DiffOptions { workers: vec![], samples: 0, max_states: 64, round_trip: false, ..Default::default() };
    let g = (0..50)
        .map(|s| generate(s, &gen_opts))
        .find(|g| matches!(diff_one(g, 0, &tiny), DiffVerdict::Skipped))
        .expect("some 4-thread program exceeds 64 states");
    match diff_one(&g, 0, &tiny) {
        DiffVerdict::Skipped => {}
        other => panic!("expected Skipped, got {other:?}"),
    }
}

/// A third fixed seed with thread cloning on, so the `Full` lane's
/// persistent sets run composed with symmetry on real orbits, at worker
/// counts spanning the CI matrix.
#[test]
fn fixed_seed_fuzz_differential_holds_dpor_to_the_oracle() {
    let gen_opts = GenOptions { max_stmts: 3, clone_threads: true, ..Default::default() };
    let diff_opts = DiffOptions {
        workers: vec![2, 4],
        max_states: 1 << 16,
        samples: 0,
        round_trip: false,
        ..Default::default()
    };
    let report = fuzz(0xD70_2026, 24, &gen_opts, &diff_opts, |_| {});
    assert!(report.ok(), "{}", fail_message(&report));
    assert!(report.passed > 0);
}

/// The long-run sweep (≈ 500 programs, a third of them with cloned
/// threads, every worker count of the CI matrix, full checks). Run with
/// `cargo test --release -- --ignored`, or at CI scale through
/// `rc11 fuzz`.
#[test]
#[ignore = "long-running fuzz sweep; run with --ignored (ideally --release)"]
fn long_fuzz_sweep_is_clean() {
    let gen_opts = GenOptions { clone_threads: true, ..Default::default() };
    // A tighter cap than the CLI default: programs near a 2^18 cap take
    // seconds *per engine configuration* — skip the giants, sweep the
    // many.
    let diff_opts =
        DiffOptions { workers: vec![1, 2, 4, 8], max_states: 1 << 15, ..Default::default() };
    let report = fuzz(7, 500, &gen_opts, &diff_opts, |_| {});
    assert!(report.ok(), "{}", fail_message(&report));
    assert!(report.passed > 250, "passed only {} of 500", report.passed);
}
