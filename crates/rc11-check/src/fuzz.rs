//! The generative differential-fuzz harness.
//!
//! For each generated program ([`crate::gen`]) the harness decides the same
//! reachability question many ways and requires every answer to agree with
//! the [`crate::reference`] oracle, a breadth-first explorer over
//! materialised canonical configurations:
//!
//! * the exploration walk under both settings of the reduction switch
//!   (below);
//! * the `.litmus` printer/parser round-trip: printing the program as text
//!   and re-parsing it must preserve the outcome set (pinning the text
//!   front-end to the builder);
//! * the reduction lanes: under [`Reduction::None`] the walk must
//!   reproduce the oracle's counts exactly; under [`Reduction::Full`]
//!   (sleep sets, persistent sets and symmetry for this outcome query)
//!   the terminal, deadlock and outcome sets must be identical while
//!   states and transitions never exceed the oracle's; and a state query
//!   (`explore_with`, sleep sets + symmetry) must keep every state —
//!   exactly the oracle's count on programs without symmetric threads
//!   (the generator's thread-cloning mode makes programs with real
//!   symmetry to reduce);
//! * the request-path/cache parity lane ([`DiffOptions::request`]): the
//!   shared [`crate::request::CheckService`] pipeline must reproduce the
//!   walk's report field-for-field on a cold check, and a warm
//!   re-check of the same program must be a cache hit with equal fields;
//! * sampler soundness: every [`crate::random::random_walk`] terminal
//!   outcome must lie inside the exhaustive outcome set (a sample outside
//!   it would be a transition the exhaustive walk missed, or a walk
//!   through a transition that should not exist).
//!
//! Any disagreement is shrunk ([`crate::gen::shrink`]) to a minimal failing
//! program and reported with its `.litmus` source, so the repro drops
//! straight into `corpus/` and `rc11 run`.

use crate::cache::VerdictCache;
use crate::chaos::{ChaosState, FaultPlan};
use crate::checkpoint::CheckpointOpts;
use crate::engine::{Engine, EngineReport, ExploreOptions, Reduction};
use crate::gen::{generate, shrink, GProg, GenOptions};
use crate::random::sample_terminals;
use crate::reference;
use crate::request::{CheckParams, CheckService, Served};
use rc11_analyze::thread_symmetry;
use rc11_core::Val;
use rc11_lang::compile;
use rc11_lang::machine::{Config, NoObjects};
use std::collections::{BTreeSet, HashSet};

/// Differential-check configuration.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// State cap per exploration; a generated program that exceeds it is
    /// skipped (counted, not failed).
    pub max_states: usize,
    /// Random walks per program for the sampler-soundness check (0
    /// disables).
    pub samples: usize,
    /// Step budget per walk.
    pub sample_steps: usize,
    /// Also round-trip each program through the `.litmus` printer/parser
    /// and require outcome-set equality.
    pub round_trip: bool,
    /// Add the chaos-resilience lane: re-run each program under seeded
    /// fault schedules ([`crate::chaos::FaultPlan::from_seed`]) — expansion
    /// panics through the request path, which contains them, and
    /// checkpoint-write failures in the checkpointer — and require every
    /// faulted report to be either as good as an unfaulted run (the
    /// reduced lane's contract against the oracle) or explicitly
    /// non-`Complete` with results that stay a sound lower bound. Never
    /// silently wrong.
    /// Default off; the fixed-seed `cargo test` lane and `rc11 fuzz
    /// --chaos` turn it on.
    pub chaos: bool,
    /// Add the request-path/cache parity lane: run the program once
    /// through a fresh [`crate::request::CheckService`] (the shared
    /// parse → canonicalise → fingerprint → cache-probe → explore
    /// pipeline behind `rc11 run` and the daemon) and require the cold
    /// response to match the walk's `Full` report and the
    /// oracle's outcomes, then re-check the
    /// identical program and require a memory-cache hit whose fields are
    /// equal to the cold run's. Default on — the lane costs one extra
    /// exploration.
    pub request: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            max_states: 1 << 18,
            samples: 24,
            sample_steps: 4096,
            round_trip: true,
            chaos: false,
            request: true,
        }
    }
}

/// The verdict for one generated program.
#[derive(Debug, Clone)]
pub enum DiffVerdict {
    /// Every lane, the round-trip and the sampler agreed.
    Pass {
        /// Distinct states the oracle explored.
        states: usize,
        /// Distinct terminal outcome tuples.
        outcomes: usize,
    },
    /// The oracle hit the state cap; nothing was compared.
    Skipped,
    /// Some check disagreed with the oracle.
    Fail(String),
}

/// The exact terminal outcome set: the observation tuple (all data
/// registers of all threads) of every terminated configuration.
fn outcome_set(g: &GProg, report: &EngineReport) -> BTreeSet<Vec<Val>> {
    let obs = g.observe();
    report
        .terminated
        .iter()
        .map(|c| obs.iter().map(|&(t, r)| c.reg(t, r)).collect())
        .collect()
}

/// How a lane's state and transition counts must relate to the oracle's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counts {
    /// Identical ([`Reduction::None`]).
    Exact,
    /// Never above ([`Reduction::Full`]).
    AtMost,
}

impl Counts {
    /// Does the count `got` relate to the oracle's `want` as required?
    fn holds(self, got: usize, want: usize) -> bool {
        match self {
            Counts::Exact => got == want,
            Counts::AtMost => got <= want,
        }
    }
}

/// One lane against the oracle: the same stop reason, identical terminal,
/// deadlock and outcome sets, and counts related as `counts` says.
fn compare(
    what: &str,
    g: &GProg,
    oracle: &EngineReport,
    oracle_outcomes: &BTreeSet<Vec<Val>>,
    got: &EngineReport,
    counts: Counts,
) -> Result<(), String> {
    if got.stop != oracle.stop {
        return Err(format!("{what}: stop {} vs oracle {}", got.stop, oracle.stop));
    }
    if !counts.holds(got.states, oracle.states)
        || !counts.holds(got.transitions, oracle.transitions)
    {
        return Err(format!(
            "{what}: {counts:?} counts violated: states {} / transitions {} vs oracle {} / {}",
            got.states, got.transitions, oracle.states, oracle.transitions
        ));
    }
    for (kind, got, want) in [
        ("terminal", &got.terminated, &oracle.terminated),
        ("deadlocked", &got.deadlocked, &oracle.deadlocked),
    ] {
        let got_set: HashSet<&Config> = got.iter().collect();
        if got.len() != want.len() || got_set != want.iter().collect() {
            return Err(format!(
                "{what}: {kind} configurations diverge ({} vs oracle {})",
                got.len(),
                want.len()
            ));
        }
    }
    let got_outcomes = outcome_set(g, got);
    if &got_outcomes != oracle_outcomes {
        let missing: Vec<_> = oracle_outcomes.difference(&got_outcomes).collect();
        let extra: Vec<_> = got_outcomes.difference(oracle_outcomes).collect();
        return Err(format!(
            "{what}: outcome sets diverge (missing {missing:?}, extra {extra:?})"
        ));
    }
    Ok(())
}

/// Run every differential check on one generated program.
pub fn diff_one(g: &GProg, seed: u64, opts: &DiffOptions) -> DiffVerdict {
    let prog = compile(&g.to_program("fuzz"));
    let unreduced = ExploreOptions {
        record_traces: false,
        max_states: opts.max_states,
        reduce: Reduction::None,
        ..Default::default()
    };
    let full = ExploreOptions { reduce: Reduction::Full, ..unreduced.clone() };

    // The oracle: the small breadth-first reference explorer.
    let oracle = reference::explore(&prog, &NoObjects, opts.max_states, |_, _| {});
    if oracle.truncated() {
        return DiffVerdict::Skipped;
    }
    let oracle_outcomes = outcome_set(g, &oracle);
    // The walk's `Full` report, kept for the checkpoint and request lanes,
    // which compare against it bit for bit.
    let seq = Engine::Sequential.explore(&prog, &NoObjects, &full);
    let program = g.to_program("fuzz");
    let observe = g.observe();

    match (|| -> Result<(), String> {
        // Both settings of the reduction switch.
        compare("full[seq]", g, &oracle, &oracle_outcomes, &seq, Counts::AtMost)?;
        let unreduced_seq = Engine::Sequential.explore(&prog, &NoObjects, &unreduced);
        compare("none[seq]", g, &oracle, &oracle_outcomes, &unreduced_seq, Counts::Exact)?;
        // A state query keeps every state: sleep sets never drop one, and
        // symmetry only folds orbits.
        let states = Engine::Sequential.explore_with(&prog, &NoObjects, &full, |_, _| {});
        let counts =
            if thread_symmetry(&prog).is_trivial() { Counts::Exact } else { Counts::AtMost };
        if !counts.holds(states.states, oracle.states) {
            return Err(format!(
                "states[seq]: {} states vs oracle {} ({counts:?})",
                states.states, oracle.states
            ));
        }

        // Printer/parser round-trip preserves the outcome set. The printed
        // form initialises registers with explicit assignments (the text
        // syntax has no register declarations), which interleaves as one
        // extra local stage per thread — the reparsed state space is a
        // small constant factor larger than the oracle's, so it gets
        // head-room on the cap; only the outcome sets are compared.
        if opts.round_trip {
            let src = g.to_litmus_source("fuzz-rt", "", &oracle_outcomes);
            let parsed = rc11_lang::parse::parse_litmus(&src)
                .map_err(|e| format!("round-trip: printed source fails to parse: {e}"))?;
            let rt_prog = compile(&parsed.prog);
            let rt = reference::explore(
                &rt_prog,
                &NoObjects,
                opts.max_states.saturating_mul(16),
                |_, _| {},
            );
            if rt.truncated() {
                return Err("round-trip: reparsed program truncated".into());
            }
            let rt_outcomes: BTreeSet<Vec<Val>> = rt
                .terminated
                .iter()
                .map(|c| parsed.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
                .collect();
            if rt_outcomes != oracle_outcomes {
                return Err(format!(
                    "round-trip: outcome sets diverge (builder {} vs reparsed {})",
                    oracle_outcomes.len(),
                    rt_outcomes.len()
                ));
            }
        }

        // Chaos resilience: under any seeded fault schedule the report is
        // either as good as an unfaulted `Full` run or explicitly
        // non-`Complete` with sound (lower-bound) results — never silently
        // wrong. Fault plans derive from the per-program seed, so every
        // failure replays.
        if opts.chaos {
            for salt in [0u64, 0xDEAD_BEEF] {
                let fault_seed = seed ^ salt;
                let plan = FaultPlan::from_seed(fault_seed);
                // The walk under the plan, through the request path, whose
                // `catch_unwind` turns an injected panic into an explicit
                // `WorkerFault` response.
                let params = CheckParams {
                    max_states: opts.max_states,
                    chaos: Some(ChaosState::new(plan)),
                    ..CheckParams::default()
                };
                let got = CheckService::new().check_parts(
                    "fuzz",
                    &program,
                    &observe,
                    &oracle_outcomes,
                    &params,
                );
                let what = format!("chaos[walk, seed {fault_seed:#x}, plan {plan:?}]");
                if got.states > oracle.states
                    || got.transitions > oracle.transitions
                    || got.deadlocks > oracle.deadlocked.len()
                {
                    return Err(format!(
                        "{what}: overcounts (states {} vs {}, transitions {} vs {}, \
                         deadlocks {} vs {})",
                        got.states,
                        oracle.states,
                        got.transitions,
                        oracle.transitions,
                        got.deadlocks,
                        oracle.deadlocked.len()
                    ));
                }
                if got.stop.is_complete() {
                    // The fault never fired: the report must meet the
                    // oracle like any other reduced run (the oracle is
                    // `Complete` here — a truncated oracle bailed out
                    // above).
                    if got.observed != oracle_outcomes
                        || got.deadlocks != oracle.deadlocked.len()
                    {
                        return Err(format!("{what}: complete run diverges from the oracle"));
                    }
                } else if !got.observed.is_subset(&oracle_outcomes) {
                    // Explicitly degraded: still a sound lower bound.
                    let extra: Vec<_> = got.observed.difference(&oracle_outcomes).collect();
                    return Err(format!("{what}: degraded run invented outcomes {extra:?}"));
                }
                // The walk with checkpointing: an injected checkpoint-write
                // failure must never corrupt the run — the report stays
                // bit-identical to the unfaulted run's, modulo the
                // CheckpointError note.
                let dir = std::env::temp_dir().join(format!(
                    "rc11-chaos-{}-{fault_seed:x}",
                    std::process::id()
                ));
                // Scale the cadence so each run writes a handful of
                // checkpoints (every save rewrites the whole O(n) log —
                // a fixed small cadence would be quadratic I/O on big
                // programs) while still reaching the injected Kth-write
                // failure.
                let every = (oracle.states / 3).max(1);
                let ck_opts = ExploreOptions {
                    chaos: Some(ChaosState::new(FaultPlan {
                        checkpoint_fail_at: Some(1 + fault_seed % 3),
                        ..FaultPlan::none()
                    })),
                    checkpoint: Some(CheckpointOpts { dir: dir.clone(), every }),
                    ..full.clone()
                };
                let ck = Engine::Sequential.explore(&prog, &NoObjects, &ck_opts);
                let _ = std::fs::remove_dir_all(&dir);
                if !ck.same_results(&seq) {
                    return Err(format!(
                        "chaos[seq-ckpt, seed {fault_seed:#x}]: a failed checkpoint write \
                         changed the report (states {} vs {}, stop {} vs {})",
                        ck.states, seq.states, ck.stop, seq.stop
                    ));
                }
            }
        }

        // Request-path/cache parity: the shared CheckService pipeline
        // (behind `rc11 run` and the daemon) must reproduce the walk's
        // `Full` report and the oracle's outcomes on a cold
        // check, and a warm re-check of the identical program must be a
        // memory-cache hit with equal fields.
        if opts.request {
            let service = CheckService::with_cache(VerdictCache::new(4));
            let params = CheckParams { max_states: opts.max_states, ..CheckParams::default() };
            let cold =
                service.check_parts("fuzz", &program, &observe, &oracle_outcomes, &params);
            if cold.served != Served::Explored {
                return Err(format!("request: cold check served {:?}", cold.served));
            }
            if cold.stop != oracle.stop {
                return Err(format!("request: stop {} vs oracle {}", cold.stop, oracle.stop));
            }
            if cold.states != seq.states || cold.transitions != seq.transitions {
                return Err(format!(
                    "request: counts {}/{} vs the walk's {}/{}",
                    cold.states, cold.transitions, seq.states, seq.transitions
                ));
            }
            if cold.observed != oracle_outcomes {
                return Err("request: observed set diverges from the oracle".into());
            }
            if cold.deadlocks != oracle.deadlocked.len() {
                return Err(format!(
                    "request: deadlocks {} vs oracle {}",
                    cold.deadlocks,
                    oracle.deadlocked.len()
                ));
            }
            if cold.pass != oracle.deadlocked.is_empty() {
                return Err(format!(
                    "request: pass {} disagrees with expected-set construction",
                    cold.pass
                ));
            }
            let warm =
                service.check_parts("fuzz", &program, &observe, &oracle_outcomes, &params);
            if warm.served != Served::MemCache {
                return Err(format!("request: warm check served {:?}, not the cache", warm.served));
            }
            if warm.fingerprint != cold.fingerprint
                || warm.pass != cold.pass
                || warm.observed != cold.observed
                || warm.states != cold.states
                || warm.transitions != cold.transitions
                || warm.deadlocks != cold.deadlocks
                || warm.stop != cold.stop
            {
                return Err("request: cached response diverges from the cold run".into());
            }
        }

        // Sampler soundness: random walks only ever land inside the
        // exhaustive outcome set. Generated programs always terminate, so
        // a sampling failure is itself a bug.
        if opts.samples > 0 {
            let samples =
                sample_terminals(&prog, &NoObjects, opts.samples, opts.sample_steps, seed)
                    .map_err(|e| format!("sampler: generated program should terminate: {e}"))?;
            let obs = g.observe();
            for cfg in &samples {
                let tuple: Vec<Val> = obs.iter().map(|&(t, r)| cfg.reg(t, r)).collect();
                if !oracle_outcomes.contains(&tuple) {
                    return Err(format!(
                        "sampler: walked to outcome {tuple:?} outside the exhaustive set"
                    ));
                }
            }
        }
        Ok(())
    })() {
        Ok(()) => DiffVerdict::Pass {
            states: oracle.states,
            outcomes: oracle_outcomes.len(),
        },
        Err(e) => DiffVerdict::Fail(e),
    }
}

/// A shrunk fuzz counterexample.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Iteration (0-based) at which the failure was found.
    pub iter: usize,
    /// The per-program seed that produced it.
    pub seed: u64,
    /// The first check that disagreed, on the *shrunk* program.
    pub what: String,
    /// The shrunk program.
    pub shrunk: GProg,
    /// The shrunk program as replayable `.litmus` source (expected set =
    /// the oracle's observed outcomes).
    pub source: String,
}

/// Aggregate results of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Programs generated.
    pub iters: usize,
    /// Programs where every check agreed.
    pub passed: usize,
    /// Programs skipped because the oracle hit the state cap.
    pub skipped: usize,
    /// Total states explored by the oracle across passing programs.
    pub total_states: usize,
    /// The first failure, shrunk — `None` on a clean run.
    pub failure: Option<FuzzFailure>,
}

impl FuzzReport {
    /// True iff no differential check failed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// A shrunk counterexample as replayable `.litmus` source, its expected
/// set recovered from the [`crate::reference`] oracle.
fn repro_source(shrunk: &GProg, seed: u64, what: &str, max_states: usize) -> String {
    let prog = compile(&shrunk.to_program("fuzz"));
    let oracle = reference::explore(&prog, &NoObjects, max_states, |_, _| {});
    shrunk.to_litmus_source(
        &format!("fuzz-fail-{seed}"),
        &format!("shrunk fuzz counterexample: {what}"),
        &outcome_set(shrunk, &oracle),
    )
}

/// Generate and differentially check `iters` programs from `seed`,
/// stopping (after shrinking) at the first failure. `progress` is called
/// after every program with the running report.
pub fn fuzz(
    seed: u64,
    iters: usize,
    gen_opts: &GenOptions,
    diff_opts: &DiffOptions,
    mut progress: impl FnMut(&FuzzReport),
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..iters {
        // Decorrelate program seeds while keeping them reproducible.
        let prog_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let g = generate(prog_seed, gen_opts);
        report.iters += 1;
        match diff_one(&g, prog_seed, diff_opts) {
            DiffVerdict::Pass { states, .. } => {
                report.passed += 1;
                report.total_states += states;
            }
            DiffVerdict::Skipped => report.skipped += 1,
            DiffVerdict::Fail(_) => {
                let fails = |cand: &GProg| {
                    matches!(diff_one(cand, prog_seed, diff_opts), DiffVerdict::Fail(_))
                };
                let shrunk = shrink(&g, fails);
                let what = match diff_one(&shrunk, prog_seed, diff_opts) {
                    DiffVerdict::Fail(e) => e,
                    other => format!("unstable failure after shrinking: {other:?}"),
                };
                let source = repro_source(&shrunk, prog_seed, &what, diff_opts.max_states);
                report.failure =
                    Some(FuzzFailure { iter: i, seed: prog_seed, what, shrunk, source });
                progress(&report);
                return report;
            }
        }
        progress(&report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_fixed_seed_fuzz_run_is_clean() {
        let gen_opts = GenOptions { max_stmts: 3, clone_threads: true, ..Default::default() };
        let diff_opts = DiffOptions {
            samples: 8,
            chaos: true,
            ..Default::default()
        };
        let report = fuzz(0xC0FFEE, 10, &gen_opts, &diff_opts, |_| {});
        assert_eq!(report.iters, 10);
        assert!(
            report.ok(),
            "differential failure: {}",
            report.failure.as_ref().map(|f| f.source.as_str()).unwrap_or("")
        );
        assert!(report.passed + report.skipped == 10);
        assert!(report.passed > 0, "at least some programs must be checkable");
    }

    /// The failure path's repro source carries the reference oracle's
    /// outcome set, so replaying it through the request pipeline passes:
    /// a printed counterexample disagrees with the walk only where the
    /// walk is wrong.
    #[test]
    fn repro_source_expects_the_reference_outcomes() {
        let service = CheckService::new();
        let gen_opts = GenOptions { max_threads: 2, max_stmts: 3, ..Default::default() };
        for seed in 1..6 {
            let g = generate(seed, &gen_opts);
            let src = repro_source(&g, seed, "test", 1 << 14);
            let resp = service.check_source(&src, &CheckParams::default()).expect("repro parses");
            assert!(resp.stop.is_complete() && !resp.observed.is_empty(), "seed {seed}");
            assert!(resp.pass, "seed {seed}: engine disagrees with the reference:\n{src}");
        }
    }

    #[test]
    fn observation_uses_all_data_registers() {
        let g = generate(7, &GenOptions::default());
        let obs = g.observe();
        assert_eq!(obs.len(), g.threads.len() * crate::gen::DATA_REGS as usize);
    }
}
