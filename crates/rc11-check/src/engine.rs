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
//! The two engines are proven equivalent — identical state, transition and
//! terminal counts and identical violation sets — by the differential suite
//! (`tests/engine_agreement.rs` at the workspace root), which holds both to
//! the small [`crate::reference`] explorer as the oracle. [`choose_engine`]
//! picks the engine for a requested worker count.

use crate::chaos::ChaosState;
use crate::checkpoint::CheckpointOpts;
use crate::explore::Explorer;
use crate::parallel::par_explore;
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
    /// POR was requested but the program exceeds the 64-thread mask
    /// ceiling; the walk ran unreduced (results stay exact).
    PorThreadCap {
        /// The program's thread count.
        threads: usize,
    },
    /// DPOR was requested but the program exceeds the 128-location
    /// future-footprint capacity; the walk degraded to sleep-sets-only
    /// (sound, fewer transitions pruned).
    DporLocationCap,
    /// Symmetry reduction was requested but the detected groups' orbit
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
            Note::DporLocationCap => {
                f.write_str("dpor-fallback: >128 locations, sleep-sets only")
            }
            Note::SymmetryOrbitCap { orbit } => {
                write!(f, "symmetry-fallback: orbit {orbit} exceeds cap, unreduced")
            }
            Note::WorkerFault { message } => write!(f, "worker-fault: {message}"),
            Note::CheckpointError { message } => write!(f, "checkpoint: {message}"),
        }
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
    /// Both engines honour this: the sequential explorer keeps a parent
    /// array, the parallel engine a sharded parent-pointer map.
    pub record_traces: bool,
    /// Partial-order reduction: sleep-set pruning over the
    /// [`rc11_core::StepFootprint`] independence oracle (ablation A5 in
    /// DESIGN.md, machinery in `crate::por`). Prunes **transitions only,
    /// never states**: the visited state set, terminal/deadlock sets and
    /// violation sets are identical to the unreduced search (enforced
    /// gallery-, corpus- and fuzz-wide by the POR differentials), while
    /// `transitions` shrinks by the number of commuted sibling orders
    /// skipped. Both engines honour it. Default **off** this release;
    /// `rc11 run --por` and the A5 benches turn it on. Ignored by the
    /// outline checker, whose Owicki–Gries classification needs every
    /// edge.
    pub por: bool,
    /// Dynamic partial-order reduction with persistent sets (ablation A7
    /// in DESIGN.md, machinery in `rc11_analyze::persistent` plus
    /// `crate::por`). Implies [`ExploreOptions::por`]: on top of the
    /// sleep-set masks, each state expands only a *persistent set* of
    /// threads — the smallest closure of pc-sensitive future-footprint
    /// conflicts — so whole threads are skipped, not just sibling orders.
    /// Unlike A5/A6 this **may shed states**: configurations only
    /// reachable by commuting an outside-the-set thread first are never
    /// built. Terminal, deadlock, outcome and violation multisets stay
    /// bit-identical to the unreduced search (Godefroid's persistent-set
    /// theorem; enforced gallery-, corpus- and fuzz-wide by the DPOR
    /// differentials), but `states` and `transitions` are only *bounded
    /// above* by the unreduced counts and may differ between engines —
    /// arrival order changes which duplicate wakes which mask. Checks
    /// that must see every reachable intermediate configuration (e.g.
    /// global invariants over non-terminal states) should use sleep-only
    /// POR or the unreduced search instead. Degrades silently to
    /// sleep-sets-only when the program exceeds the 128-location future-
    /// footprint capacity, and to the unreduced search past 64 threads
    /// (reported via [`EngineReport::por_fallback`]). Default **off**;
    /// `rc11 run --dpor` and the A7 benches turn it on.
    pub dpor: bool,
    /// Thread-symmetry reduction (ablation A6 in DESIGN.md, machinery in
    /// `rc11_analyze::symmetry` plus `crate::sym`): configurations that
    /// differ only by a permutation of provably-symmetric threads are
    /// identified, so the visited state count shrinks by up to the orbit
    /// size (`N!` for `N` fully-symmetric threads) — redundancy POR cannot
    /// see (POR prunes transitions; symmetry identifies states). Outcome,
    /// violation and terminal/deadlock sets stay bit-identical to the
    /// unreduced search: the check callback runs on every distinct orbit
    /// member at discovery, and terminal sets are orbit-expanded before
    /// the report is returned. Composes with [`ExploreOptions::por`].
    /// Programs without symmetric threads pay one cheap static analysis
    /// and then run the unchanged fast path. Default
    /// **off** this release; `rc11 run --symmetry` and the A6 benches turn
    /// it on. Ignored by the outline checker (Owicki–Gries classification
    /// is per-edge and per-thread).
    pub symmetry: bool,
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
            por: false,
            dpor: false,
            symmetry: false,
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

/// Exploration statistics and results, identical across engines.
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
    /// Structured warnings: silent degradations surfaced (POR/DPOR/
    /// symmetry caps), contained worker faults, checkpoint errors. Notes
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

    /// True iff POR was requested but fell back to the unreduced search
    /// (the old `por_fallback` field, now [`Note::PorThreadCap`]).
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
/// question; the differential suite holds them to identical answers.
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
    /// it from every worker.
    pub fn explore_with(
        &self,
        prog: &CfgProgram,
        objs: &(dyn ObjectSemantics + Sync),
        opts: &ExploreOptions,
        check: impl Fn(&Config, &mut Vec<String>) + Sync,
    ) -> EngineReport {
        match self {
            Engine::Sequential => Explorer::new(prog, objs)
                .with_options(opts.clone())
                .explore_with(|c, out| check(c, out)),
            Engine::Parallel { workers } => par_explore(prog, objs, opts, *workers, check),
        }
    }

    /// Plain reachability (no property).
    pub fn explore(
        &self,
        prog: &CfgProgram,
        objs: &(dyn ObjectSemantics + Sync),
        opts: &ExploreOptions,
    ) -> EngineReport {
        self.explore_with(prog, objs, opts, |_, _| {})
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

    #[test]
    fn choose_engine_prefers_sequential_for_one_worker() {
        assert_eq!(choose_engine(0), Engine::Sequential);
        assert_eq!(choose_engine(1), Engine::Sequential);
        assert_eq!(choose_engine(2), Engine::Parallel { workers: 2 });
        assert_eq!(choose_engine(8), Engine::Parallel { workers: 8 });
    }

    #[test]
    fn workers_clamped_to_at_least_one() {
        assert_eq!(Engine::Sequential.workers(), 1);
        assert_eq!(Engine::Parallel { workers: 0 }.workers(), 1);
        assert_eq!(Engine::Parallel { workers: 4 }.workers(), 4);
    }
}
