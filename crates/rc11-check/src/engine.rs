//! The unified exploration-engine surface.
//!
//! Every exhaustive check in the workspace — litmus verdicts, proof-outline
//! validation, refinement harness sweeps, the lock negative controls — asks
//! the same question: "what does the reachable configuration space look
//! like?". This module gives that question one answer type
//! ([`EngineReport`], with [`Violation`]s that carry counterexample traces)
//! and one entry point ([`Engine`]) behind which the sequential explorer
//! ([`crate::explore::Explorer`]) and the batched work-stealing parallel
//! explorer ([`crate::parallel::par_explore`]) are interchangeable.
//!
//! The differential suite (`tests/engine_agreement.rs` at the workspace
//! root) holds both engines to the small [`crate::reference`] explorer as
//! the oracle. Under [`Reduction::None`] they match it exactly — state,
//! transition and terminal counts and violation sets. Under the default
//! [`Reduction::Full`] they match its terminal, deadlock and violation
//! sets exactly, while state and transition counts are only bounded above
//! by the reference's; the parallel engine's counts can then also vary
//! from run to run with arrival order. [`choose_engine`] picks the engine
//! for a requested worker count.

use crate::chaos::ChaosState;
use crate::checkpoint::CheckpointOpts;
use crate::explore::Explorer;
use crate::parallel::par_run;
use rc11_core::Tid;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{Config, ObjectSemantics, StepOptions};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why an exploration stopped — the generalisation of the old `truncated`
/// bool into an ordered lattice. Reasons are ordered by severity and
/// combined by `max` ([`StopReason::bump`]): a run that hits the state cap
/// *and* loses a worker reports the worker fault. Every non-[`Complete`]
/// stop still yields a **sound lower bound**: all reported states,
/// transitions, terminals, deadlocks and violations are real; only
/// completeness is forfeit. Both engines agree on the verdict class —
/// `ok()` is true only for violation-free `Complete` runs.
///
/// [`Complete`]: StopReason::Complete
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum StopReason {
    /// Exploration exhausted the reachable space.
    #[default]
    Complete,
    /// The `max_states` cap cut the walk short.
    StateCap,
    /// [`Budget::max_transitions`] was reached.
    TransitionCap,
    /// [`Budget::max_mem_bytes`] was reached (approximate arena bytes).
    MemBudget,
    /// [`Budget::deadline`] expired.
    Deadline,
    /// The shared [`CancelToken`] was cancelled. A cancelled run never
    /// claims `Complete`, even when cancellation raced the final state:
    /// both engines re-check the token after their loops.
    Cancelled,
    /// A parallel worker panicked; the run continued degraded on the
    /// surviving workers (see `parallel`), so coverage may have gaps.
    WorkerFault,
}

impl StopReason {
    /// Combine in the lattice: keep the more severe reason.
    pub fn bump(&mut self, other: StopReason) {
        *self = (*self).max(other);
    }

    /// True iff exploration exhausted the space.
    pub fn is_complete(&self) -> bool {
        *self == StopReason::Complete
    }

    pub(crate) fn as_u8(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_u8(v: u8) -> StopReason {
        match v {
            0 => StopReason::Complete,
            1 => StopReason::StateCap,
            2 => StopReason::TransitionCap,
            3 => StopReason::MemBudget,
            4 => StopReason::Deadline,
            5 => StopReason::Cancelled,
            _ => StopReason::WorkerFault,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Complete => "complete",
            StopReason::StateCap => "state-cap",
            StopReason::TransitionCap => "transition-cap",
            StopReason::MemBudget => "mem-budget",
            StopReason::Deadline => "deadline",
            StopReason::Cancelled => "cancelled",
            StopReason::WorkerFault => "worker-fault",
        };
        f.write_str(s)
    }
}

/// Resource budgets for one exploration, all optional. Checked
/// cooperatively in both engines' hot loops (between work items), so each
/// bound may be overshot by at most one item's expansion; any trip stops
/// the walk with the matching [`StopReason`] and a sound partial report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from the start of `explore_with`.
    pub deadline: Option<Duration>,
    /// Cap on generated transitions.
    pub max_transitions: Option<usize>,
    /// Cap on the approximate interned-arena footprint in bytes
    /// ([`rc11_lang::machine::Config::approx_bytes`] summed over interned
    /// states).
    pub max_mem_bytes: Option<usize>,
}

impl Budget {
    /// True iff no bound is set (the default).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_transitions.is_none() && self.max_mem_bytes.is_none()
    }
}

/// A shared cooperative-cancellation handle. Clone it, hand one clone to
/// [`ExploreOptions::cancel`] and keep the other; `cancel()` from any
/// thread makes both engines stop at the next work item with
/// [`StopReason::Cancelled`]. The default token is never cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A structured warning on an [`EngineReport`]: something degraded or went
/// wrong without invalidating the verdict. The old `por_fallback` bool is
/// now [`Note::PorThreadCap`]; `rc11 run` prints notes as a column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Note {
    /// Sleep sets were due but the program exceeds the 64-thread mask
    /// ceiling; the walk ran without them (results stay exact).
    PorThreadCap {
        /// The program's thread count.
        threads: usize,
    },
    /// Symmetry reduction was due but the detected groups' orbit
    /// exceeds `rc11_analyze::symmetry::ORBIT_CAP`; the walk ran without
    /// reduction (results stay exact).
    SymmetryOrbitCap {
        /// The orbit size detection gave up on.
        orbit: usize,
    },
    /// A parallel worker panicked and was contained; its in-flight state
    /// was dropped and the run continued degraded.
    WorkerFault {
        /// The panic payload, stringified.
        message: String,
    },
    /// A checkpoint write or load failed (or was chaos-injected to fail);
    /// the run continued without that checkpoint.
    CheckpointError {
        /// What failed.
        message: String,
    },
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::PorThreadCap { threads } => {
                write!(f, "por-fallback: {threads} threads exceed the 64-thread POR ceiling")
            }
            Note::SymmetryOrbitCap { orbit } => {
                write!(f, "symmetry-fallback: orbit {orbit} exceeds cap, unreduced")
            }
            Note::WorkerFault { message } => write!(f, "worker-fault: {message}"),
            Note::CheckpointError { message } => write!(f, "checkpoint: {message}"),
        }
    }
}

/// The reduction switch ([`ExploreOptions::reduce`]).
///
/// It names no algorithm: the engine derives, per query, the strongest
/// reduction that preserves what that query observes (DESIGN.md A5–A7).
///
/// | query | `Full` runs |
/// |---|---|
/// | [`Engine::explore`] (outcomes only) | sleep sets + persistent sets + symmetry |
/// | [`Engine::explore_with`], [`Engine::check_invariant`] | sleep sets + symmetry |
/// | the outline checker (per-edge classification) | nothing |
///
/// Outcome queries keep the terminal, deadlock and outcome sets exact;
/// `states` and `transitions` are bounded above by the unreduced search.
/// State queries additionally hand the callback every reachable state
/// (each orbit member included), so violation sets stay exact and
/// `states` is the number of orbit representatives — equal to the
/// unreduced count on programs without symmetric threads. `None` runs
/// the unreduced search everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reduction {
    /// The unreduced search.
    None,
    /// The strongest sound reduction for each query (the default).
    #[default]
    Full,
}

/// What a walk must preserve, which decides its [`Level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Query {
    /// Terminal and deadlock sets only (no per-state callback).
    Outcomes,
    /// Every reachable state, handed to a per-state callback.
    States,
    /// Every edge of the reachable graph (Owicki–Gries classification).
    Edges,
}

/// The reductions one walk runs, derived from [`Reduction`] and the
/// [`Query`] — never set by callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Level {
    /// Sleep-set POR (A5): prunes transitions, never states.
    pub sleep: bool,
    /// Persistent sets (A7): may shed states; implies `sleep`.
    pub persistent: bool,
    /// Thread symmetry (A6): one representative per orbit.
    pub symmetry: bool,
}

impl Level {
    /// The strongest level `reduce` allows for `query`.
    pub(crate) fn of(reduce: Reduction, query: Query) -> Level {
        match (reduce, query) {
            (Reduction::None, _) | (_, Query::Edges) => Level::default(),
            (Reduction::Full, Query::Outcomes) => {
                Level { sleep: true, persistent: true, symmetry: true }
            }
            (Reduction::Full, Query::States) => {
                Level { sleep: true, persistent: false, symmetry: true }
            }
        }
    }

    /// One word naming the level (checkpoint signatures).
    pub(crate) fn word(self) -> u8 {
        self.sleep as u8 | (self.persistent as u8) << 1 | (self.symmetry as u8) << 2
    }
}

/// Exploration limits and knobs, shared by both engines.
///
/// There is no dedup knob: both engines deduplicate visited states on
/// zero-rebuild 128-bit canonical fingerprints ([`crate::fxhash::Fp128`]),
/// confirm every fingerprint hit with a `canonical_eq` walk against the
/// interned representative, and intern each canonical configuration
/// exactly once (ablation A4 in DESIGN.md). The differential suites hold
/// that path to [`crate::reference`], a small breadth-first explorer over
/// materialised canonical forms that no option selects.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Step-generation options (local fusion).
    pub step: StepOptions,
    /// Hard cap on visited states (guards against state explosion; the
    /// report marks truncation). The parallel engine checks the cap
    /// against a racy running counter, so its visited map may transiently
    /// overshoot by up to one batch of successors per worker; the report
    /// reconciles that to the sequential engine's verdict — whenever the
    /// cap was exceeded, `truncated` is set and `states` is clamped to
    /// `max_states` (still a valid lower bound on the reachable space) —
    /// so cap-hitting runs agree across engines.
    pub max_states: usize,
    /// Record parent pointers so violations carry counterexample traces.
    /// Both engines honour this: each keeps an arena of interned states
    /// with first-discovery parent edges and rebuilds traces with one
    /// shared routine.
    pub record_traces: bool,
    /// The reduction switch, [`Reduction::Full`] by default: each query
    /// runs the strongest reduction that preserves what it observes (see
    /// [`Reduction`]). Under `Full`, parallel state and transition counts
    /// may vary with arrival order; [`Reduction::None`] pins them to the
    /// unreduced search's.
    pub reduce: Reduction,
    /// Resource budgets (deadline, transition cap, approximate memory
    /// cap). Checked cooperatively between work items in both engines'
    /// hot loops; tripping one stops the walk with the matching
    /// [`StopReason`] and a sound partial report. Unlimited by default.
    pub budget: Budget,
    /// Shared cooperative-cancellation token; `cancel()` on any clone
    /// stops both engines at the next work item with
    /// [`StopReason::Cancelled`]. The default token never cancels.
    pub cancel: CancelToken,
    /// Periodic checkpointing of the sequential explorer's frontier and
    /// visited set ([`crate::checkpoint`]): with `Some`, the explorer
    /// saves a replay-log checkpoint to the directory every
    /// `every` expanded items (and on every non-`Complete` stop), resumes
    /// from a matching checkpoint found there, and deletes it on
    /// `Complete`. Resumed runs produce reports **bit-identical** to
    /// uninterrupted ones. The parallel engine ignores this (callers —
    /// `rc11 run --checkpoint` — force the sequential engine).
    pub checkpoint: Option<CheckpointOpts>,
    /// Seeded deterministic fault injection ([`crate::chaos`]) for the
    /// resilience test harness: worker panics and stalls fire in the
    /// parallel engine's expansion loop, checkpoint-write failures in the
    /// sequential checkpointer. `None` (the default) injects nothing.
    pub chaos: Option<Arc<ChaosState>>,
    /// Telemetry sink (DESIGN.md §9). With `Some`, both engines tally
    /// structured counters — states, transitions, dup hits, confirmed
    /// fingerprint collisions, reduction prunes/sheds/folds, cap
    /// degradations, scheduler traffic, per-worker expansions — into the
    /// shared sink via sharded relaxed atomics, and attach the run's
    /// contribution to [`EngineReport::telemetry`] as a snapshot delta.
    /// `None` (the default) makes every instrumentation site a single
    /// untaken branch; verdicts are bit-identical either way (enforced
    /// corpus-wide by `tests/telemetry.rs`). Deliberately **not** part of
    /// the verdict-cache key ([`crate::request::option_words`]).
    pub telemetry: Option<Arc<rc11_telemetry::Telemetry>>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            step: StepOptions::default(),
            max_states: 5_000_000,
            record_traces: true,
            reduce: Reduction::Full,
            budget: Budget::default(),
            cancel: CancelToken::default(),
            checkpoint: None,
            chaos: None,
            telemetry: None,
        }
    }
}

/// A violation discovered during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What was violated (human-readable).
    pub what: String,
    /// The offending configuration.
    pub config: Config,
    /// The step sequence from the initial configuration, if traces were
    /// recorded: `(moving thread, resulting configuration)` pairs.
    pub trace: Option<Vec<(Tid, Config)>>,
}

/// Exploration statistics and results, shared by both engines (see the
/// module docs for how far their counts agree).
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Distinct canonical configurations visited.
    pub states: usize,
    /// Transitions generated.
    pub transitions: usize,
    /// Terminal configurations where every thread halted.
    pub terminated: Vec<Config>,
    /// Terminal configurations with at least one non-halted (blocked)
    /// thread — deadlocks under the abstract semantics.
    pub deadlocked: Vec<Config>,
    /// Violations reported by the check callback.
    pub violations: Vec<Violation>,
    /// Why exploration stopped. Anything but [`StopReason::Complete`]
    /// means the results are a sound lower bound on the reachable space
    /// (the old `truncated` bool generalised to a lattice).
    pub stop: StopReason,
    /// Structured warnings: silent degradations surfaced (POR thread and
    /// symmetry orbit caps), contained worker faults, checkpoint errors. Notes
    /// never change the verdict; `rc11 run` prints them as a column.
    pub notes: Vec<Note>,
    /// Monotonic wall-clock duration of the exploration, measured inside
    /// the engine (from entry to report construction). Populated by both
    /// engines on every run; callers derive states/s from it instead of
    /// timing around the call. Excluded from [`EngineReport::same_results`].
    pub wall: Duration,
    /// This run's telemetry contribution (a snapshot delta against the
    /// sink at run start), present iff [`ExploreOptions::telemetry`] was
    /// set. Excluded from [`EngineReport::same_results`] and from the
    /// verdict cache.
    pub telemetry: Option<rc11_telemetry::TelemetrySnapshot>,
}

impl EngineReport {
    /// No violations and exploration completed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stop.is_complete()
    }

    /// True iff exploration stopped early for any reason (results are a
    /// lower bound) — the old `truncated` field as a method.
    pub fn truncated(&self) -> bool {
        !self.stop.is_complete()
    }

    /// True iff sleep sets were due but the walk ran without them (the
    /// old `por_fallback` field, now [`Note::PorThreadCap`]).
    pub fn por_fallback(&self) -> bool {
        self.notes.iter().any(|n| matches!(n, Note::PorThreadCap { .. }))
    }

    /// Push `note` unless an equal one is already present.
    pub fn note(&mut self, note: Note) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    /// Are two reports bit-identical in their *results* — states,
    /// transitions, terminal/deadlock sets, violations (including traces)
    /// and stop reason? Notes, wall time and telemetry are excluded: they
    /// describe how the run went, not what it found. This is the equality
    /// the chaos, checkpoint/resume and telemetry differentials enforce.
    pub fn same_results(&self, other: &EngineReport) -> bool {
        self.states == other.states
            && self.transitions == other.transitions
            && self.terminated == other.terminated
            && self.deadlocked == other.deadlocked
            && self.violations == other.violations
            && self.stop == other.stop
    }
}

/// Which exploration engine to run. Both decide the same reachability
/// question; the differential suite holds them to the reference
/// explorer's answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential explorer ([`crate::explore::Explorer`]).
    Sequential,
    /// The batched work-stealing parallel explorer
    /// ([`crate::parallel::par_explore`]) with this many workers.
    Parallel {
        /// Worker-thread count (clamped to at least 1).
        workers: usize,
    },
}

/// Pick an engine for a requested worker count: one worker (or zero) gets
/// the sequential explorer — it has no synchronisation overhead and is the
/// only engine that checkpoints — more workers get the parallel engine.
pub fn choose_engine(n_workers: usize) -> Engine {
    if n_workers <= 1 {
        Engine::Sequential
    } else {
        Engine::Parallel { workers: n_workers }
    }
}

impl Engine {
    /// The number of worker threads this engine runs.
    pub fn workers(&self) -> usize {
        match self {
            Engine::Sequential => 1,
            Engine::Parallel { workers } => (*workers).max(1),
        }
    }

    /// Exhaustive reachability with a per-configuration check callback.
    /// The callback pushes a description into `out` for every property the
    /// configuration violates; `out` is a reusable buffer owned by the
    /// engine (one per worker in the parallel engine), so violation-free
    /// configurations — the overwhelmingly common case — allocate nothing.
    /// The callback must be `Sync` because the parallel engine evaluates
    /// it from every worker. A state query: under [`Reduction::Full`] the
    /// callback still sees every reachable configuration (see
    /// [`Reduction`]).
    pub fn explore_with(
        &self,
        prog: &CfgProgram,
        objs: &(dyn ObjectSemantics + Sync),
        opts: &ExploreOptions,
        check: impl Fn(&Config, &mut Vec<String>) + Sync,
    ) -> EngineReport {
        self.run(prog, objs, opts, Query::States, check)
    }

    /// Plain reachability (no property): an outcome query, so
    /// [`Reduction::Full`] may skip intermediate states — terminal and
    /// deadlock sets stay exact.
    pub fn explore(
        &self,
        prog: &CfgProgram,
        objs: &(dyn ObjectSemantics + Sync),
        opts: &ExploreOptions,
    ) -> EngineReport {
        self.run(prog, objs, opts, Query::Outcomes, |_, _| {})
    }

    fn run(
        &self,
        prog: &CfgProgram,
        objs: &(dyn ObjectSemantics + Sync),
        opts: &ExploreOptions,
        query: Query,
        check: impl Fn(&Config, &mut Vec<String>) + Sync,
    ) -> EngineReport {
        match self {
            Engine::Sequential => Explorer::new(prog, objs)
                .with_options(opts.clone())
                .walk(query, |c, out| check(c, out)),
            Engine::Parallel { workers } => par_run(prog, objs, opts, *workers, query, check),
        }
    }

    /// Check a predicate as a global invariant. Honours budgets,
    /// cancellation and checkpointing exactly like [`Engine::explore`]:
    /// it is the same walk with a predicate check layered on, so a budget
    /// trip yields a sound partial report with the matching
    /// [`StopReason`] on either engine.
    pub fn check_invariant(
        &self,
        prog: &CfgProgram,
        objs: &(dyn ObjectSemantics + Sync),
        opts: &ExploreOptions,
        pred: &rc11_assert::Pred,
    ) -> EngineReport {
        self.explore_with(prog, objs, opts, |cfg, out| {
            let ctx = rc11_assert::EvalCtx { prog, cfg };
            if !pred.eval(ctx) {
                out.push("invariant violated".to_string());
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_lang::machine::NoObjects;

    #[test]
    fn choose_engine_prefers_sequential_for_one_worker() {
        assert_eq!(choose_engine(0), Engine::Sequential);
        assert_eq!(choose_engine(1), Engine::Sequential);
        assert_eq!(choose_engine(2), Engine::Parallel { workers: 2 });
        assert_eq!(choose_engine(8), Engine::Parallel { workers: 8 });
    }

    /// Past 128 locations persistent sets still apply (the footprint
    /// bitsets grow a word per 64 locations), and the reduced outcome
    /// query keeps the reference's terminal set at every worker count.
    #[test]
    fn wide_programs_reduce_and_keep_reference_outcomes() {
        let vars: String = (0..130).map(|i| format!("var x{i} = 0\n")).collect();
        let writes: String = (0..130).map(|i| format!("x{i} = 1; ")).collect();
        let src = format!(
            "litmus \"wide\"\n{vars}thread A {{ {writes} }}\nthread B {{ r = x129; }}\n\
             thread C {{ s = 1; }}\nobserve B.r C.s\nexpected {{ (0,1) }}\n"
        );
        let prog = rc11_lang::compile(&rc11_lang::parse_litmus(&src).unwrap().prog);
        let oracle = crate::reference::explore(&prog, &NoObjects, usize::MAX, |_, _| {});
        let want: std::collections::HashSet<&Config> = oracle.terminated.iter().collect();
        for engine in [Engine::Sequential, Engine::Parallel { workers: 2 }] {
            let r = engine.explore(&prog, &NoObjects, &ExploreOptions::default());
            assert!(r.ok() && r.deadlocked.is_empty(), "{engine:?}");
            assert!(r.transitions < oracle.transitions, "{engine:?}: persistent sets shed work");
            assert_eq!(r.terminated.len(), oracle.terminated.len(), "{engine:?}");
            assert_eq!(r.terminated.iter().collect::<std::collections::HashSet<_>>(), want);
        }
    }

    #[test]
    fn workers_clamped_to_at_least_one() {
        assert_eq!(Engine::Sequential.workers(), 1);
        assert_eq!(Engine::Parallel { workers: 0 }.workers(), 1);
        assert_eq!(Engine::Parallel { workers: 4 }.workers(), 4);
    }
}
